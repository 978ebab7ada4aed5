/**
 * @file
 * mealib-run: execute a TDL program on the simulated MEALib system.
 *
 * Usage:
 *   mealib-run <program.tdl> [--params=<dir>] [--bind k=v ...]
 *              [--cost-only] [--arena-mib=N] [--verbose]
 *              [--stacks=N] [--queue-depth=N] [--scheduler=P]
 *              [--repeat=N] [--fault-seed=S] [--fault-rate=R]
 *              [--silent-rate=R] [--fail-stack=S[@N]]
 *              [--watchdog-us=T] [--max-retries=K] [--integrity]
 *              [--checkpoint-interval=K] [--quarantine-threshold=T]
 *              [--quarantine-window=N] [--quarantine-probation=N]
 *              [--quarantine-canaries=N] [--quarantine-strikes=N]
 *              [--offload-policy=P] [--dispatch-json=PATH]
 *              [--machine=M] [--energy-json=PATH] [--help]
 *   mealib-run --clients=N [--app=stap|sar|cg|mix] [options]
 *
 * Exit codes: 0 on success, 1 on an internal error, 2 on a usage /
 * configuration error, 3 when a submitted command reached an
 * unrecoverable terminal state (TIMED_OUT / FAILED) — the stderr line
 * is structured as `mealib-run: command failed: state=<s> code=<c>
 * message=<m>` so harnesses can parse it.
 *
 * Parameter files referenced by COMP blocks are loaded from --params
 * (default: the TDL file's directory). `$symbol` placeholders are
 * resolved from --bind options (`--bind=x=4096`, repeatable via comma
 * separation: `--bind=x=4096,y=8192`).
 *
 * With --cost-only the functional kernels are skipped and only the
 * time/energy model runs (buffers need not exist), which allows
 * paper-scale address ranges.
 *
 * --stacks, --queue-depth and --scheduler (round_robin | locality)
 * configure the asynchronous command-queue engine; --repeat=N submits
 * the compiled program N times through accSubmit() before waiting, and
 * the summary reports the overlap-aware makespan next to the serial
 * total.
 *
 * Fault injection (docs/FAULTS.md): --fault-rate=R arms every transient
 * source (corrected/uncorrectable ECC, link CRC, command hang, compute
 * fault) at a per-attempt probability R, rolled deterministically from
 * --fault-seed (which must be non-negative). --silent-rate=R
 * additionally arms silent data corruption — only end-to-end
 * verification (--integrity) can catch it. --fail-stack=S kills stack
 * S before the first command (S@N: before global command N).
 * --watchdog-us bounds a hung command; --max-retries bounds the retry
 * ladder before host fallback. The summary then adds a degraded-mode
 * line (retries, fallbacks, watchdog fires, corrected ECC events).
 *
 * Resilience layers (docs/FAULTS.md): --integrity prices per-transfer
 * operand checksums (and catches injected silent corruption);
 * --checkpoint-interval=K journals a snapshot every K expanded COMPs of
 * rerun-safe programs, so retries and stack-death drains resume from
 * the last committed checkpoint instead of re-running from scratch.
 * --quarantine-threshold=T arms the stack health monitor: a stack whose
 * sliding-window fault score reaches T is quarantined, re-admitted
 * through a canary probation (--quarantine-window/-probation/-canaries
 * configure the window and cooldown), and permanently failed after
 * --quarantine-strikes failed probations (0 = never).
 *
 * --offload-policy=P (host | accel | crossover | calibrated) routes
 * every COMP of the program through the op-IR dispatcher
 * (docs/DISPATCH.md) instead of executing the plan wholesale: the
 * policy decides per call whether the functional result is produced by
 * a host-priced execution or an accelerator submission, and the summary
 * gains a dispatch line. --dispatch-json=PATH writes the per-kind
 * telemetry (calls, decisions, fallbacks, bytes) as JSON; it implies
 * the dispatcher with the host policy when --offload-policy is absent.
 * Without either flag the legacy wholesale path runs untouched.
 *
 * --clients=N (docs/SESSIONS.md) switches to the multi-tenant driver:
 * no TDL program is read; instead N client threads each open a
 * mealib::Session over ONE shared runtime, bind it to their thread and
 * run --app (stap | sar | cg, or the default mix that round-robins all
 * three). Every client's functional output is digested (FNV-1a) and
 * verified against a solo run of the same application on a private
 * runtime — multi-tenancy must not change anyone's numbers — and the
 * per-session energy ledgers are summed against the shared runtime's
 * aggregate accounting. Any digest mismatch or ledger-sum divergence
 * exits 1. Both runs build their RuntimeConfig from the same flags and
 * defaults; a flag that does nothing on the chosen run (--repeat,
 * --bind, --params, --dispatch-json, --cost-only with --clients;
 * --app without it) or that mealib-run does not know exits 2.
 *
 * --machine=M selects the hardware-model profile every layer prices
 * against (haswell4770k | xeonphi5110p, aliases haswell | phi); it
 * overrides the MEALIB_MACHINE environment variable and defaults to
 * haswell4770k. --energy-json=PATH writes the runtime's energy ledger
 * (per-track costs, component attribution, EDP, GFLOPS/W; schema in
 * docs/MODEL.md) after the run.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "accel/descriptor.hh"
#include "apps/cg.hh"
#include "apps/sar.hh"
#include "apps/stap.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "dispatch/backend.hh"
#include "dispatch/dispatcher.hh"
#include "dispatch/models.hh"
#include "dispatch/policy.hh"
#include "dram/stack.hh"
#include "hwmodel/profile.hh"
#include "runtime/runtime.hh"
#include "s2s/compiler.hh"
#include "session/session.hh"
#include "tdl/codegen.hh"

using namespace mealib;

namespace {

void
printHelp(const std::string &program)
{
    std::printf(
        "usage: %s <program.tdl> [options]\n"
        "\n"
        "Execute a TDL program on the simulated MEALib system.\n"
        "\n"
        "general:\n"
        "  --params=DIR           parameter-file directory (default:\n"
        "                         the TDL file's directory)\n"
        "  --bind=k=v,...         bind $symbol placeholders\n"
        "  --cost-only            skip functional kernels, model only\n"
        "  --arena-mib=N          backing arena size (default 64)\n"
        "  --machine=M            haswell4770k | xeonphi5110p\n"
        "  --verbose              verbose logging\n"
        "  --help                 this text\n"
        "\n"
        "command-queue engine:\n"
        "  --stacks=N             memory stacks (default 1)\n"
        "  --queue-depth=N        per-stack queue depth (default 8)\n"
        "  --scheduler=P          round_robin | locality\n"
        "  --repeat=N             submit the program N times\n"
        "\n"
        "fault injection (docs/FAULTS.md):\n"
        "  --fault-seed=S         injection seed (non-negative)\n"
        "  --fault-rate=R         per-attempt probability, in [0,1],\n"
        "                         armed for every transient source\n"
        "  --silent-rate=R        silent-corruption probability; only\n"
        "                         --integrity can catch these\n"
        "  --fail-stack=S[@N]     kill stack S (before command N)\n"
        "  --watchdog-us=T        hung-command watchdog (default 100)\n"
        "  --max-retries=K        retry budget (default 3)\n"
        "  --no-host-fallback     exhausted commands terminate\n"
        "                         TIMED_OUT / FAILED (exit 3) instead\n"
        "                         of re-running on the host\n"
        "\n"
        "resilience (docs/FAULTS.md):\n"
        "  --integrity            per-transfer operand checksums\n"
        "  --checkpoint-interval=K  journal a snapshot every K\n"
        "                         expanded COMPs (0 = off)\n"
        "  --quarantine-threshold=T  fault score arming quarantine,\n"
        "                         in (0,1] (0 = off)\n"
        "  --quarantine-window=N  sliding window, commands (16)\n"
        "  --quarantine-probation=N  cooldown before probation (32)\n"
        "  --quarantine-canaries=N   clean canaries to re-admit (2)\n"
        "  --quarantine-strikes=N    probation failures before the\n"
        "                         stack dies for good (0 = never)\n"
        "\n"
        "multi-tenant (docs/SESSIONS.md):\n"
        "  --clients=N            N client threads, one session each,\n"
        "                         against ONE shared runtime (no TDL\n"
        "                         file); outputs verified against solo\n"
        "                         digests, session ledgers summed\n"
        "                         against the aggregate accounting;\n"
        "                         every runtime, fault, resilience,\n"
        "                         reuse and dispatch-policy flag\n"
        "                         applies, --repeat/--bind/--params/\n"
        "                         --dispatch-json/--cost-only exit 2\n"
        "  --app=A                stap | sar | cg | mix (default mix)\n"
        "\n"
        "dispatch & output:\n"
        "  --offload-policy=P     host | accel | crossover | calibrated\n"
        "  --dispatch-json=PATH   per-kind dispatch telemetry\n"
        "  --energy-json=PATH     energy-ledger JSON\n"
        "\n"
        "reuse (docs/RUNTIME.md):\n"
        "  --residency            track cross-command operand residency\n"
        "                         and elide redundant flush/verify work\n"
        "  --fusion-window=N      fuse up to N adjacent same-stack\n"
        "                         dispatched calls into one descriptor\n"
        "                         program (default 1 = off); a TDL run\n"
        "                         needs --offload-policy or\n"
        "                         --dispatch-json\n"
        "\n"
        "exit codes: 0 success, 1 internal error, 2 usage/config\n"
        "error (incl. an unknown flag, or one that does nothing on the\n"
        "chosen run), 3 unrecoverable command (structured stderr).\n",
        program.c_str());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatalIf(!in, "cannot open '", path, "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
dirName(const std::string &path)
{
    auto slash = path.find_last_of('/');
    return slash == std::string::npos ? "." : path.substr(0, slash);
}

std::map<std::string, std::uint64_t>
parseBindings(const std::string &spec)
{
    std::map<std::string, std::uint64_t> out;
    std::stringstream ss(spec);
    std::string part;
    while (std::getline(ss, part, ',')) {
        if (part.empty())
            continue;
        auto eq = part.find('=');
        fatalIf(eq == std::string::npos, "--bind entry '", part,
                "' is not k=v");
        char *end = nullptr;
        std::uint64_t v =
            std::strtoull(part.c_str() + eq + 1, &end, 0);
        fatalIf(end == nullptr || *end != '\0', "--bind value in '",
                part, "' is not a number");
        out[part.substr(0, eq)] = v;
    }
    return out;
}

/**
 * Per-COMP dispatch execution (--offload-policy / --dispatch-json):
 * every COMP of @p prog — paired with its enclosing LOOP, if any —
 * lowers into an OpDesc and runs through a Dispatcher backed by the
 * runtime. Host decisions keep the functional result (the shared
 * functional engine computes it, as the fault-fallback path does) but
 * are priced as native host execution; accel decisions submit through
 * the asynchronous queue engine.
 */
/** Write the runtime's energy ledger as JSON (--energy-json). */
void
writeEnergyJson(const runtime::MealibRuntime &rt,
                const std::string &path)
{
    if (path.empty())
        return;
    std::ofstream out(path, std::ios::binary);
    fatalIf(!out, "cannot write '", path, "'");
    out << rt.ledger().toJson(hwmodel::activeMachineName()) << "\n";
    std::printf("energy ledger written to %s\n", path.c_str());
}

/** FNV-1a digest of a buffer (stable, platform-independent). */
std::uint64_t
fnv1a(const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * One client's application against @p rt, executed under the calling
 * thread's session binding. Shared mode throughout (exclusive=false):
 * the apps neither reset nor read the runtime's aggregate accounting —
 * attribution comes from the bound session's ledger. Returns the
 * FNV-1a digest of the functional output.
 */
std::uint64_t
runClientApp(const std::string &app, runtime::MealibRuntime &rt)
{
    if (app == "stap") {
        apps::StapResult r = apps::runStapMealib(
            apps::StapParams::smallSet(), rt, /*exclusive=*/false);
        return fnv1a(r.prods.data(),
                     r.prods.size() * sizeof(r.prods[0]));
    }
    if (app == "sar") {
        apps::SarResult r = apps::runSarChain(64, true, rt, 7);
        return fnv1a(r.image.data(),
                     r.image.size() * sizeof(r.image[0]));
    }
    if (app == "cg") {
        mkl::CsrMatrix a = apps::cgTestMatrix(600, 1);
        std::vector<float> b(600);
        for (std::size_t i = 0; i < b.size(); ++i)
            b[i] = static_cast<float>(
                std::sin(0.05 * static_cast<double>(i)));
        apps::CgOptions opts;
        opts.exclusive = false;
        apps::CgResult r = apps::solveCgMealib(a, b, rt, opts);
        return fnv1a(r.x.data(), r.x.size() * sizeof(float));
    }
    throw MealibError(
        Status::error(ErrorCode::InvalidArgument,
                      "--app '" + app + "' is not stap|sar|cg|mix"));
}

/**
 * The --clients=N multi-tenant driver: N threads, one Session each,
 * against one shared runtime. Per-client digests must match a solo run
 * of the same app (isolation), and the per-session ledgers must sum to
 * the shared runtime's aggregate accounting (exact attribution).
 */
int
runClients(const Cli &cli, const runtime::RuntimeConfig &cfg,
           unsigned clients, const std::string &appSpec,
           const SessionOptions &sopts,
           const std::string &energyJsonPath)
{
    static const char *kMix[] = {"stap", "sar", "cg"};
    std::vector<std::string> appOf(clients);
    for (unsigned i = 0; i < clients; ++i)
        appOf[i] = appSpec == "mix" ? kMix[i % 3] : appSpec;

    // Solo oracles: each distinct app once, alone on a private
    // runtime. Multi-tenancy must not change anyone's numbers.
    std::map<std::string, std::uint64_t> reference;
    for (const std::string &app : appOf) {
        if (reference.count(app) != 0)
            continue;
        runtime::MealibRuntime solo(cfg);
        Session s(solo, sopts);
        SessionBinding bound = s.bind();
        reference[app] = runClientApp(app, solo);
    }

    // The shared stack: one runtime, N sessions, N threads.
    runtime::MealibRuntime rt(cfg);
    std::vector<std::unique_ptr<Session>> sessions;
    for (unsigned i = 0; i < clients; ++i)
        sessions.push_back(std::make_unique<Session>(rt, sopts));
    std::vector<std::uint64_t> digest(clients, 0);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (unsigned i = 0; i < clients; ++i)
        threads.emplace_back([&rt, &sessions, &digest, &appOf, i] {
            SessionBinding bound = sessions[i]->bind();
            digest[i] = runClientApp(appOf[i], rt);
        });
    for (std::thread &t : threads)
        t.join();
    rt.waitAll();

    int rc = 0;
    Cost sum;
    std::printf("multitenant: %u client(s), app %s, policy %s\n",
                clients, appSpec.c_str(),
                sopts.policy.empty() ? "(env)" : sopts.policy.c_str());
    for (unsigned i = 0; i < clients; ++i) {
        const Cost c = sessions[i]->ledger().total();
        sum += c;
        const bool ok = digest[i] == reference[appOf[i]];
        std::printf("client %u: app %-4s digest %016llx %s  "
                    "%10.6f ms  %10.6f mJ\n",
                    i, appOf[i].c_str(),
                    static_cast<unsigned long long>(digest[i]),
                    ok ? "OK      " : "MISMATCH", c.seconds * 1e3,
                    c.joules * 1e3);
        if (!ok)
            rc = 1;
    }
    for (const auto &[app, d] : reference)
        std::printf("digest[%s]=%016llx\n", app.c_str(),
                    static_cast<unsigned long long>(d));

    const Cost agg = rt.accounting().total();
    const double ds =
        std::abs(sum.seconds - agg.seconds) /
        std::max({std::abs(agg.seconds), 1e-300});
    const double dj = std::abs(sum.joules - agg.joules) /
                      std::max({std::abs(agg.joules), 1e-300});
    const bool ledgers_ok = ds <= 1e-9 && dj <= 1e-9;
    std::printf("ledgers: sum %.9f ms / %.9f mJ, aggregate %.9f ms / "
                "%.9f mJ (%s)\n",
                sum.seconds * 1e3, sum.joules * 1e3, agg.seconds * 1e3,
                agg.joules * 1e3, ledgers_ok ? "match" : "DIVERGED");
    if (!ledgers_ok)
        rc = 1;

    writeEnergyJson(rt, energyJsonPath);
    if (rc != 0)
        std::fprintf(stderr, "%s: multi-tenant isolation check "
                             "failed\n",
                     cli.program().c_str());
    return rc;
}

int
runDispatched(runtime::MealibRuntime &rt,
              const runtime::RuntimeConfig &cfg,
              const accel::DescriptorProgram &prog, std::uint64_t repeat,
              const std::string &policyName, const std::string &jsonPath,
              const std::string &energyJsonPath, unsigned fusionWindow)
{
    auto policy = dispatch::makePolicy(policyName);
    fatalIf(policy == nullptr, "--offload-policy '", policyName,
            "' is not host|accel|crossover|calibrated");
    dispatch::Dispatcher disp(std::move(policy));
    auto costs = std::make_shared<dispatch::RooflineCostModel>();
    costs->setFusionWindow(fusionWindow);
    disp.setCostModel(costs);
    dispatch::RuntimeBackend backend(rt, fusionWindow);
    disp.attachBackend(&backend);
    // Decisions land in the runtime's ledger as zero-cost notes, so the
    // --energy-json record shows where every call went.
    disp.attachLedger(&rt.ledger());

    struct Unit
    {
        accel::OpCall call;
        accel::LoopSpec loop;
    };
    std::vector<Unit> units;
    for (std::size_t i = 0; i < prog.instrs.size(); ++i) {
        const accel::Instr &in = prog.instrs[i];
        if (in.type == accel::Instr::Type::Comp) {
            units.push_back({in.call, accel::LoopSpec{}});
        } else if (in.type == accel::Instr::Type::Loop) {
            for (std::size_t j = i + 1;
                 j <= i + in.bodyCount && j < prog.instrs.size(); ++j)
                if (prog.instrs[j].type == accel::Instr::Type::Comp)
                    units.push_back({prog.instrs[j].call, in.loop});
            i += in.bodyCount;
        }
    }

    for (std::uint64_t r = 0; r < repeat; ++r) {
        for (const Unit &u : units) {
            dispatch::OpDesc d =
                dispatch::opDescFromCall(u.call, u.loop);
            disp.run(d, [&] {
                if (cfg.functional) {
                    accel::DescriptorProgram up;
                    if (u.loop.iterations() > 1)
                        up.addLoop(u.loop, 2);
                    up.addComp(u.call);
                    up.addPassEnd();
                    rt.stack(0).acquire(dram::Owner::Accelerator);
                    rt.layer(0).execute(up, rt.mem());
                    rt.stack(0).release(dram::Owner::Accelerator);
                }
                rt.runOnHost(dispatch::hostKernelProfile(
                    hwmodel::activeProfile(), u.call, u.loop));
            });
        }
    }
    backend.sync(); // materialize any fused calls still buffered
    rt.waitAll();

    const dispatch::DispatchStats ds = disp.snapshot();
    const runtime::RuntimeAccounting &acct = rt.accounting();
    std::printf("program: %zu instruction(s), %zu dispatch unit(s), "
                "%llu dispatched call(s)\n",
                prog.instrs.size(), units.size(),
                static_cast<unsigned long long>(ds.totalCalls()));
    std::printf("dispatch: policy %s, %llu accel decision(s), "
                "%llu offloaded (ratio %.2f), %.3f of %.3f MiB "
                "accelerator-side\n",
                disp.policy().name(),
                static_cast<unsigned long long>(
                    ds.totalAccelDecisions()),
                static_cast<unsigned long long>(ds.totalOffloaded()),
                ds.offloadRatio(),
                ds.totalBytesOffloaded() / 1048576.0,
                ds.totalBytes() / 1048576.0);
    for (std::size_t k = 0; k < ds.byKind.size(); ++k) {
        const dispatch::OpStats &os = ds.byKind[k];
        if (os.calls == 0)
            continue;
        std::printf("  %-6s %6llu call(s)  host %llu  accel %llu  "
                    "offloaded %llu  fallback %llu\n",
                    dispatch::name(static_cast<dispatch::OpKind>(k)),
                    static_cast<unsigned long long>(os.calls),
                    static_cast<unsigned long long>(os.hostDecisions),
                    static_cast<unsigned long long>(os.accelDecisions),
                    static_cast<unsigned long long>(os.offloaded),
                    static_cast<unsigned long long>(os.fallbacks));
    }
    std::printf("time:   %.6f ms serial (makespan %.6f ms)\n",
                acct.total().seconds * 1e3, acct.makespanSeconds * 1e3);
    std::printf("energy: %.6f mJ\n", acct.total().joules * 1e3);
    if (rt.config().residency.enabled || fusionWindow > 1)
        std::printf("reuse:  %llu flush B elided, %llu verify B elided, "
                    "%llu handshake(s) elided, %llu fused program(s), "
                    "%llu plan-image reuse(s)\n",
                    static_cast<unsigned long long>(
                        acct.flushBytesElided),
                    static_cast<unsigned long long>(
                        acct.verifyBytesElided),
                    static_cast<unsigned long long>(
                        acct.handshakesElided),
                    static_cast<unsigned long long>(acct.fusedPrograms),
                    static_cast<unsigned long long>(
                        acct.planImageReuses));
    if (cfg.fault.enabled())
        std::printf("faults: %zu injected (retries %llu, fallbacks "
                    "%llu)\n",
                    rt.faultModel().history().size(),
                    static_cast<unsigned long long>(acct.retryCount),
                    static_cast<unsigned long long>(acct.fallbackCount));
    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath, std::ios::binary);
        fatalIf(!out, "cannot write '", jsonPath, "'");
        out << ds.toJson(disp.policy().name()) << "\n";
        std::printf("dispatch telemetry written to %s\n",
                    jsonPath.c_str());
    }
    writeEnergyJson(rt, energyJsonPath);
    disp.detachLedger();
    disp.detachBackend();
    return 0;
}

/** Flags only a TDL program run reads. */
const std::set<std::string> kProgramFlags = {
    "params", "bind", "cost-only", "repeat", "dispatch-json"};

/** Flags only the --clients driver reads. */
const std::set<std::string> kClientFlags = {"clients", "app"};

/** Flags both runs read. */
const std::set<std::string> kSharedFlags = {
    "help", "verbose", "machine", "arena-mib", "stacks", "queue-depth",
    "scheduler", "fault-seed", "fault-rate", "silent-rate", "fail-stack",
    "watchdog-us", "max-retries", "no-host-fallback", "integrity",
    "checkpoint-interval", "quarantine-threshold", "quarantine-window",
    "quarantine-probation", "quarantine-canaries", "quarantine-strikes",
    "residency", "fusion-window", "offload-policy", "energy-json"};

/** InvalidArgument naming the first flag that is unknown or does
 * nothing on the chosen run (a knob must take effect or be rejected). */
Status
checkFlags(const Cli &cli, bool clients)
{
    auto invalid = [](const std::string &msg) {
        return Status::error(ErrorCode::InvalidArgument, msg);
    };
    if (clients && !cli.positional().empty())
        return invalid("a TDL program does nothing with --clients");
    for (const auto &[flag, value] : cli.options()) {
        const bool program = kProgramFlags.count(flag) != 0;
        const bool client = kClientFlags.count(flag) != 0;
        if (!program && !client && kSharedFlags.count(flag) == 0)
            return invalid("unknown flag --" + flag + "; see --help");
        if (clients && program)
            return invalid("--" + flag + " does nothing with --clients");
        if (!clients && client)
            return invalid("--" + flag + " needs --clients");
    }
    // Only dispatched calls fuse: a plain TDL run submits the whole
    // program as one plan.
    if (!clients && cli.has("fusion-window") &&
        cli.get("offload-policy", "").empty() &&
        cli.get("dispatch-json", "").empty())
        return invalid("--fusion-window needs --offload-policy or "
                       "--dispatch-json");
    return Status();
}

/**
 * The runtime configuration of both runs, from the flags and the
 * defaults --help documents. Selects --machine first: RuntimeConfig's
 * defaults come from the active machine profile.
 */
runtime::RuntimeConfig
buildConfig(const Cli &cli)
{
    auto invalid = [](const std::string &msg) {
        return MealibError(
            Status::error(ErrorCode::InvalidArgument, msg));
    };
    const std::string machine = cli.get("machine", "");
    if (!machine.empty())
        hwmodel::setActiveMachine(machine).orThrow();

    runtime::RuntimeConfig cfg;
    cfg.functional = !cli.has("cost-only");
    cfg.backingBytes = static_cast<std::uint64_t>(
                           cli.getInt("arena-mib", 64))
                       << 20;
    cfg.numStacks = static_cast<unsigned>(cli.getInt("stacks", 1));
    cfg.queueDepth = static_cast<unsigned>(cli.getInt("queue-depth", 8));
    const std::string sched = cli.get("scheduler", "locality");
    if (sched != "round_robin" && sched != "rr" && sched != "locality")
        throw invalid("unknown scheduler policy '" + sched +
                      "' (expected 'round_robin' or 'locality')");
    cfg.scheduler = runtime::schedulerPolicy(sched);

    // --- fault injection (docs/FAULTS.md) ------------------------------
    const std::int64_t seed = cli.getInt("fault-seed", 0);
    if (seed < 0)
        throw invalid("--fault-seed must be non-negative (got " +
                      std::to_string(seed) + ")");
    cfg.fault.seed = static_cast<std::uint64_t>(seed);
    const double rate = cli.getDouble("fault-rate", 0.0);
    cfg.fault.eccCorrectableRate = rate;
    cfg.fault.eccUncorrectableRate = rate;
    cfg.fault.linkCrcRate = rate;
    cfg.fault.hangRate = rate;
    cfg.fault.computeTransientRate = rate;
    cfg.fault.silentCorruptionRate = cli.getDouble("silent-rate", 0.0);
    const std::string fail_spec = cli.get("fail-stack", "");
    if (!fail_spec.empty()) {
        auto at = fail_spec.find('@');
        cfg.fault.failStack = static_cast<unsigned>(
            std::strtoul(fail_spec.c_str(), nullptr, 0));
        if (at != std::string::npos)
            cfg.fault.failStackAfter =
                std::strtoull(fail_spec.c_str() + at + 1, nullptr, 0);
    }
    cfg.watchdogSeconds =
        cli.getDouble("watchdog-us", cfg.watchdogSeconds * 1e6) * 1e-6;
    cfg.retry.maxRetries = static_cast<unsigned>(
        cli.getInt("max-retries", cfg.retry.maxRetries));
    if (cli.has("no-host-fallback"))
        cfg.retry.hostFallback = false;

    // --- integrity / checkpoint / health (docs/FAULTS.md) --------------
    cfg.integrity.verifyTransfers = cli.has("integrity");
    cfg.checkpoint.intervalComps =
        static_cast<unsigned>(cli.getInt("checkpoint-interval", 0));
    cfg.health.quarantineThreshold =
        cli.getDouble("quarantine-threshold", 0.0);
    cfg.health.windowCommands = static_cast<unsigned>(
        cli.getInt("quarantine-window", cfg.health.windowCommands));
    cfg.health.probationAfterCommands = static_cast<unsigned>(cli.getInt(
        "quarantine-probation", cfg.health.probationAfterCommands));
    cfg.health.canaryCommands = static_cast<unsigned>(
        cli.getInt("quarantine-canaries", cfg.health.canaryCommands));
    cfg.health.maxStrikes = static_cast<unsigned>(
        cli.getInt("quarantine-strikes", cfg.health.maxStrikes));

    // --- residency (docs/RUNTIME.md) -----------------------------------
    if (cli.has("residency"))
        cfg.residency.enabled = true;
    return cfg;
}

/** --fusion-window (default 1); at least 1. */
unsigned
fusionWindow(const Cli &cli)
{
    const std::int64_t w = cli.getInt("fusion-window", 1);
    if (w < 1) {
        throw MealibError(
            Status::error(ErrorCode::InvalidArgument,
                          "--fusion-window must be at least 1"));
    }
    return static_cast<unsigned>(w);
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli(argc, argv);
    if (cli.has("help")) {
        printHelp(cli.program());
        return 0;
    }
    if (cli.positional().empty() && !cli.has("clients")) {
        std::fprintf(stderr,
                     "usage: %s <program.tdl> [options]; see --help\n",
                     cli.program().c_str());
        return 2;
    }
    setVerbose(cli.has("verbose"));

    try {
        const bool clients = cli.has("clients");
        checkFlags(cli, clients).orThrow();

        // --- multi-tenant driver (docs/SESSIONS.md) --------------------
        if (clients) {
            const std::int64_t n = cli.getInt("clients", 0);
            if (n < 1) {
                throw MealibError(
                    Status::error(ErrorCode::InvalidArgument,
                                  "--clients must be at least 1"));
            }
            const runtime::RuntimeConfig cfg = buildConfig(cli);
            SessionOptions sopts;
            sopts.policy = cli.get("offload-policy", "");
            if (!sopts.policy.empty() &&
                dispatch::makePolicy(sopts.policy) == nullptr)
                throw MealibError(Status::error(
                    ErrorCode::InvalidArgument,
                    "--offload-policy '" + sopts.policy +
                        "' is not host|accel|crossover|calibrated"));
            sopts.fusionWindow = fusionWindow(cli);
            return runClients(cli, cfg, static_cast<unsigned>(n),
                              cli.get("app", "mix"), sopts,
                              cli.get("energy-json", ""));
        }

        const std::string tdl_path = cli.positional()[0];
        const std::string params_dir =
            cli.get("params", dirName(tdl_path));
        auto binds = parseBindings(cli.get("bind", ""));

        std::string tdl = s2s::bindParams(readFile(tdl_path), binds);
        auto resolve = [&](const std::string &name) {
            return s2s::bindParams(readFile(params_dir + "/" + name),
                                   binds);
        };
        accel::DescriptorProgram prog = tdl::compileTdl(tdl, resolve);

        const runtime::RuntimeConfig cfg = buildConfig(cli);
        const unsigned fusion_window = fusionWindow(cli);

        runtime::MealibRuntime rt(cfg);

        const std::uint64_t repeat = static_cast<std::uint64_t>(
            cli.getInt("repeat", 1));
        if (repeat == 0) {
            throw MealibError(
                Status::error(ErrorCode::InvalidArgument,
                              "--repeat must be at least 1"));
        }

        const std::string policy_name = cli.get("offload-policy", "");
        const std::string dispatch_json = cli.get("dispatch-json", "");
        const std::string energy_json = cli.get("energy-json", "");
        if (!policy_name.empty() || !dispatch_json.empty())
            return runDispatched(
                rt, cfg, prog, repeat,
                policy_name.empty() ? "host" : policy_name,
                dispatch_json, energy_json, fusion_window);

        runtime::AccPlanHandle plan = rt.accPlan(prog);
        std::vector<runtime::Event> events;
        if (repeat == 1) {
            // The paper's blocking Listing-2 semantics: submit on the
            // plan's home stack, then poll DONE.
            events.push_back(
                rt.accSubmitOn(plan, rt.homeStackOf(plan)));
            events.front().wait();
        } else {
            // Asynchronous fan-out: N submits, one wait. Overlap shows
            // up with --stacks > 1 (on one stack the in-order queue
            // serializes the copies anyway).
            for (std::uint64_t i = 0; i < repeat; ++i)
                events.push_back(rt.accSubmit(plan));
            rt.waitAll();
        }
        accel::ExecStats stats = events.front().stats();
        for (std::size_t i = 1; i < events.size(); ++i) {
            stats.total += events[i].stats().total;
            stats.invocation += events[i].stats().invocation;
            stats.compsExecuted += events[i].stats().compsExecuted;
            stats.passes += events[i].stats().passes;
            stats.bytesMoved += events[i].stats().bytesMoved;
        }
        rt.accDestroy(plan);

        // An unrecoverable terminal state (watchdog expiry or device
        // failure with fallback disabled) is a run failure: report it
        // on stderr in a machine-parseable form and exit 3.
        for (const runtime::Event &ev : events) {
            if (runtime::completed(ev.state()))
                continue;
            std::fprintf(stderr,
                         "%s: command failed: state=%s code=%s "
                         "message=\"%s\"\n",
                         cli.program().c_str(),
                         runtime::name(ev.state()),
                         name(ev.status().code()),
                         ev.status().message().c_str());
            return 3;
        }

        std::printf("program: %zu instruction(s), %llu expanded COMP "
                    "invocation(s), %llu pass(es)\n",
                    prog.instrs.size(),
                    static_cast<unsigned long long>(stats.compsExecuted),
                    static_cast<unsigned long long>(stats.passes));
        std::printf("time:   %.6f ms (invocation %.6f ms)\n",
                    stats.total.seconds * 1e3,
                    stats.invocation.seconds * 1e3);
        std::printf("energy: %.6f mJ (avg power %.2f W)\n",
                    stats.total.joules * 1e3, stats.total.watts());
        std::printf("DRAM traffic: %.3f MiB (%.1f GB/s effective)\n",
                    stats.bytesMoved / 1048576.0,
                    stats.bytesMoved / stats.total.seconds / 1e9);
        for (const auto &[k, v] : stats.timeByAccel.parts())
            std::printf("  %-6s %8.3f us  %8.3f uJ\n", k.c_str(),
                        v * 1e6, stats.energyByAccel.get(k) * 1e6);
        const runtime::RuntimeAccounting &acct = rt.accounting();
        std::printf("queue:  %u stack(s), depth %u, %s scheduler\n",
                    rt.numStacks(), cfg.queueDepth,
                    runtime::name(cfg.scheduler));
        std::printf("makespan: %.6f ms (serial %.6f ms, overlap saved "
                    "%.6f ms)\n",
                    acct.makespanSeconds * 1e3,
                    acct.total().seconds * 1e3,
                    acct.overlapSavedSeconds() * 1e3);
        if (cfg.residency.enabled)
            std::printf("reuse:  %llu flush B elided, %llu verify B "
                        "elided, %llu plan-image reuse(s)\n",
                        static_cast<unsigned long long>(
                            acct.flushBytesElided),
                        static_cast<unsigned long long>(
                            acct.verifyBytesElided),
                        static_cast<unsigned long long>(
                            acct.planImageReuses));
        if (cfg.fault.enabled()) {
            std::printf("faults: seed %llu, %zu injected (retries %llu, "
                        "fallbacks %llu, watchdog %llu, ecc-corrected "
                        "%llu)\n",
                        static_cast<unsigned long long>(cfg.fault.seed),
                        rt.faultModel().history().size(),
                        static_cast<unsigned long long>(acct.retryCount),
                        static_cast<unsigned long long>(
                            acct.fallbackCount),
                        static_cast<unsigned long long>(
                            acct.watchdogFires),
                        static_cast<unsigned long long>(
                            acct.eccCorrected));
            std::printf("degraded: %u/%u stacks healthy, fallback "
                        "%.6f ms on the host\n",
                        rt.healthyStackCount(), rt.numStacks(),
                        acct.fallbackSeconds * 1e3);
        }
        if (cfg.integrity.enabled() || cfg.checkpoint.enabled())
            std::printf("integrity: %.6f ms / %.6f mJ verify+journal, "
                        "%llu checkpoint(s), %llu resume(s), silent "
                        "%llu caught / %llu missed\n",
                        acct.integrity().seconds * 1e3,
                        acct.integrity().joules * 1e3,
                        static_cast<unsigned long long>(
                            acct.checkpointsTaken),
                        static_cast<unsigned long long>(
                            acct.resumedFromCheckpoint),
                        static_cast<unsigned long long>(
                            acct.silentDetected),
                        static_cast<unsigned long long>(
                            acct.silentUndetected));
        if (cfg.health.enabled())
            std::printf("health: %u/%u stacks selectable, %llu "
                        "quarantine(s), %llu readmission(s)\n",
                        rt.selectableStackCount(), rt.numStacks(),
                        static_cast<unsigned long long>(
                            acct.quarantines),
                        static_cast<unsigned long long>(
                            acct.readmissions));
        writeEnergyJson(rt, energy_json);
        return 0;
    } catch (const MealibError &e) {
        // A recoverable configuration/usage error the library reported
        // (bad fault rates, health thresholds, ...): a usage problem,
        // not an internal failure.
        std::fprintf(stderr, "%s: %s\n", cli.program().c_str(),
                     e.what());
        return 2;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
