/**
 * @file
 * mealib-run: execute a TDL program on the simulated MEALib system.
 *
 *   mealib-run <program.tdl> [options]
 *   mealib-run --clients=N [options]
 *
 * `--help` lists every flag; each one is declared once, in the table
 * below, with its type, default, range and the runs that read it.
 *
 * Exit codes: 0 on success, 1 on an internal error, 2 on a usage /
 * configuration error, 3 when a submitted command reached an
 * unrecoverable terminal state (TIMED_OUT / FAILED) — the stderr line
 * is structured as `mealib-run: command failed: state=<s> code=<c>
 * message=<m>` so harnesses can parse it.
 *
 * The flags' narrative lives in docs/FAULTS.md (fault injection and
 * resilience), docs/DISPATCH.md (--offload-policy, --dispatch-json),
 * docs/RUNTIME.md (--residency, --fusion-window), docs/SESSIONS.md
 * (--clients, --app) and docs/MODEL.md (--machine, --energy-json).
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
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

/** The runs mealib-run can make; bit i of a ModeSet is mode i. */
enum : ModeSet
{
    kTdlRun = 1,        //!< a TDL program executed as one plan
    kDispatchedRun = 2, //!< a TDL program, per COMP through the dispatcher
    kClientRun = 4,     //!< the --clients multi-tenant driver
    kTdlRuns = kTdlRun | kDispatchedRun,
    kDispatching = kDispatchedRun | kClientRun,
};

constexpr FlagType kBool = FlagType::Bool, kInt = FlagType::Int,
                   kReal = FlagType::Real, kText = FlagType::String;
constexpr double kU32 = 4294967295.0;

FlagTable table(
    "Execute a TDL program on the simulated MEALib system, or with\n"
    "--clients run N client sessions against one shared runtime. A TDL\n"
    "run with --offload-policy or --dispatch-json is dispatched.\n"
    "Exit codes: 0 success, 1 internal error, 2 usage/config error,\n"
    "3 unrecoverable command (structured stderr).",
    "<program.tdl> [options] | --clients=N [options]", 1,
    {"plain TDL runs", "dispatched TDL runs", "--clients runs"});

// general
const Flag &kParams = table.add(
    Flag{"params", kText, "", "parameter-file dir (default: the TDL's)"}
        .in(kTdlRuns));
const Flag &kBind = table.add(
    Flag{"bind", kText, "", "bind $symbol placeholders: k=v,..."}.in(
        kTdlRuns));
const Flag &kCostOnly = table.add(
    Flag{"cost-only", kBool, "", "skip functional kernels, model only"}.in(
        kTdlRuns));
const Flag &kArenaMib =
    table.add({"arena-mib", kInt, "64", "backing arena, MiB", 1, 65536});
const Flag &kMachine = table.add(
    envBackedFlag("machine", Env::Machine, "hardware-model profile"));
const Flag &kVerbose = table.add({"verbose", kBool, "", "verbose logging"});

// command-queue engine
const Flag &kStacks =
    table.add({"stacks", kInt, "1", "memory stacks", 1, 1024});
const Flag &kQueueDepth =
    table.add({"queue-depth", kInt, "8", "per-stack queue depth", 1, kU32});
const Flag &kScheduler =
    table.add({"scheduler", FlagType::Choice, "locality",
               "stack-placement policy", 0, 0,
               {"round_robin", "rr", "locality"}});
const Flag &kRepeat = table.add(
    Flag{"repeat", kInt, "1", "submit the program N times", 1, 1 << 20}.in(
        kTdlRuns));

// fault injection (docs/FAULTS.md)
const Flag &kFaultSeed = table.add(
    {"fault-seed", kInt, "0", "fault-injection seed", 0, HUGE_VAL});
const Flag &kFaultRate = table.add(
    {"fault-rate", kReal, "0", "probability of each transient fault", 0, 1});
const Flag &kSilentRate =
    table.add({"silent-rate", kReal, "0",
               "silent-corruption probability (see --integrity)", 0, 1});
const Flag &kFailStack = table.add(
    {"fail-stack", kText, "", "kill stack S before command N: S[@N]"});
const Flag &kWatchdogUs = table.add(
    {"watchdog-us", kReal, "100", "hung-command watchdog, us", 0, HUGE_VAL});
const Flag &kMaxRetries = table.add(
    {"max-retries", kInt, "3", "retries before host fallback", 0, kU32});
const Flag &kNoHostFallback =
    table.add({"no-host-fallback", kBool, "",
               "exhausted commands fail (exit 3), no host re-run"});

// resilience (docs/FAULTS.md)
const Flag &kIntegrity = table.add(
    {"integrity", kBool, "", "per-transfer operand checksums"});
const Flag &kCheckpointInterval =
    table.add({"checkpoint-interval", kInt, "0",
               "snapshot every K expanded COMPs (0 = off)", 0, kU32});
const Flag &kQuarantineThreshold =
    table.add({"quarantine-threshold", kReal, "0",
               "fault score that quarantines a stack (0 = off)", 0, 1});
const Flag &kQuarantineWindow = table.add(
    {"quarantine-window", kInt, "16", "sliding window, commands", 0, kU32});
const Flag &kQuarantineProbation =
    table.add({"quarantine-probation", kInt, "32",
               "cooldown commands before probation", 0, kU32});
const Flag &kQuarantineCanaries =
    table.add({"quarantine-canaries", kInt, "2",
               "clean canaries that re-admit a stack", 0, kU32});
const Flag &kQuarantineStrikes =
    table.add({"quarantine-strikes", kInt, "0",
               "failed probations until the stack dies (0 = never)", 0,
               kU32});

// multi-tenant (docs/SESSIONS.md)
const Flag &kClients = table.add(
    Flag{"clients", kInt, "1", "client sessions on one shared runtime", 1,
         64}
        .in(kClientRun));
const Flag &kApp = table.add(
    Flag{"app", FlagType::Choice, "mix", "each client's application", 0, 0,
         {"stap", "sar", "cg", "mix"}}
        .in(kClientRun));

// dispatch & output
const Flag &kOffloadPolicy = table.add(
    envBackedFlag("offload-policy", Env::OffloadPolicy,
                  "dispatch policy (a TDL run defaults to host)")
        .in(kDispatching));
const Flag &kDispatchJson = table.add(
    Flag{"dispatch-json", kText, "", "per-kind dispatch telemetry"}.in(
        kDispatchedRun));
const Flag &kEnergyJson =
    table.add({"energy-json", kText, "", "energy-ledger JSON path"});

// reuse (docs/RUNTIME.md)
const Flag &kResidency = table.add(
    {"residency", kBool, "", "track residency, elide redundant flushes"});
const Flag &kFusionWindow = table.add(
    Flag{"fusion-window", kInt, "1",
         "fuse up to N adjacent dispatched calls (1 = off)", 1, kU32}
        .in(kDispatching));

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
        const auto eq = part.find('=');
        const char *digits =
            eq == std::string::npos ? "" : part.c_str() + eq + 1;
        char *end = nullptr;
        const std::uint64_t v = std::strtoull(digits, &end, 0);
        if (*digits == '\0' || *end != '\0')
            throw MealibError(Status::error(
                ErrorCode::InvalidArgument,
                "--bind expects k=v entries with numeric v, got '" + part +
                    "'"));
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
    panic("unknown client app '", app, "'");
}

/**
 * The --clients=N multi-tenant driver: N threads, one Session each,
 * against one shared runtime. Per-client digests must match a solo run
 * of the same app (isolation), and the per-session ledgers must sum to
 * the shared runtime's aggregate accounting (exact attribution).
 */
int
runClients(const std::string &program, const runtime::RuntimeConfig &cfg,
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
                     program.c_str());
    return rc;
}

int
runDispatched(runtime::MealibRuntime &rt,
              const runtime::RuntimeConfig &cfg,
              const accel::DescriptorProgram &prog, std::uint64_t repeat,
              const std::string &policyName, const std::string &jsonPath,
              const std::string &energyJsonPath, unsigned fusionWindow)
{
    dispatch::Dispatcher disp(dispatch::makePolicy(policyName));
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

/** Stack S and command N of --fail-stack=S[@N]; digits only. */
void
parseFailStack(const std::string &spec, fault::FaultConfig &fault)
{
    auto number = [&spec](const std::string &part) {
        if (part.empty() ||
            part.find_first_not_of("0123456789") != std::string::npos ||
            part.size() > 9)
            throw MealibError(Status::error(
                ErrorCode::InvalidArgument,
                "--fail-stack expects S or S@N (non-negative integers), "
                "got '" + spec + "'"));
        return std::stoull(part);
    };
    const auto at = spec.find('@');
    fault.failStack = static_cast<unsigned>(number(spec.substr(0, at)));
    if (at != std::string::npos)
        fault.failStackAfter = number(spec.substr(at + 1));
}

/**
 * The runtime configuration of both runs, from the flag table. Selects
 * --machine first: RuntimeConfig's defaults come from the active
 * machine profile.
 */
runtime::RuntimeConfig
buildConfig(const Flags &flags)
{
    if (flags.given(kMachine))
        hwmodel::setActiveMachine(flags.text(kMachine)).orThrow();

    runtime::RuntimeConfig cfg;
    cfg.functional = !flags.on(kCostOnly);
    cfg.backingBytes = static_cast<std::uint64_t>(flags.integer(kArenaMib))
                       << 20;
    cfg.numStacks = static_cast<unsigned>(flags.integer(kStacks));
    cfg.queueDepth = static_cast<unsigned>(flags.integer(kQueueDepth));
    cfg.scheduler = runtime::schedulerPolicy(flags.text(kScheduler));

    // --- fault injection (docs/FAULTS.md) ------------------------------
    cfg.fault.seed = static_cast<std::uint64_t>(flags.integer(kFaultSeed));
    const double rate = flags.real(kFaultRate);
    cfg.fault.eccCorrectableRate = rate;
    cfg.fault.eccUncorrectableRate = rate;
    cfg.fault.linkCrcRate = rate;
    cfg.fault.hangRate = rate;
    cfg.fault.computeTransientRate = rate;
    cfg.fault.silentCorruptionRate = flags.real(kSilentRate);
    if (flags.given(kFailStack))
        parseFailStack(flags.text(kFailStack), cfg.fault);
    cfg.watchdogSeconds = flags.real(kWatchdogUs) * 1e-6;
    cfg.retry.maxRetries =
        static_cast<unsigned>(flags.integer(kMaxRetries));
    cfg.retry.hostFallback = !flags.on(kNoHostFallback);

    // --- integrity / checkpoint / health (docs/FAULTS.md) --------------
    cfg.integrity.verifyTransfers = flags.on(kIntegrity);
    cfg.checkpoint.intervalComps =
        static_cast<unsigned>(flags.integer(kCheckpointInterval));
    cfg.health.quarantineThreshold = flags.real(kQuarantineThreshold);
    cfg.health.windowCommands =
        static_cast<unsigned>(flags.integer(kQuarantineWindow));
    cfg.health.probationAfterCommands =
        static_cast<unsigned>(flags.integer(kQuarantineProbation));
    cfg.health.canaryCommands =
        static_cast<unsigned>(flags.integer(kQuarantineCanaries));
    cfg.health.maxStrikes =
        static_cast<unsigned>(flags.integer(kQuarantineStrikes));

    // --- residency (docs/RUNTIME.md) -----------------------------------
    cfg.residency.enabled = flags.on(kResidency);
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const Flags flags = table.parseOrExit(argc, argv, [](const Flags &f) {
        return f.given(kClients) ? kClientRun
               : f.given(kOffloadPolicy) || f.given(kDispatchJson)
                   ? kDispatchedRun
                   : kTdlRun;
    });
    const bool clients = flags.given(kClients);
    if (flags.positional().empty() && !clients) {
        std::fprintf(stderr,
                     "usage: %s <program.tdl> [options]; see --help\n",
                     flags.program().c_str());
        return 2;
    }
    setVerbose(flags.on(kVerbose));

    try {
        if (clients && !flags.positional().empty())
            throw MealibError(
                Status::error(ErrorCode::InvalidArgument,
                              "a TDL program does nothing with --clients"));

        // --- multi-tenant driver (docs/SESSIONS.md) --------------------
        if (clients) {
            const runtime::RuntimeConfig cfg = buildConfig(flags);
            SessionOptions sopts;
            // Absent, each session resolves MEALIB_OFFLOAD_POLICY.
            if (flags.given(kOffloadPolicy))
                sopts.policy = flags.text(kOffloadPolicy);
            sopts.fusionWindow =
                static_cast<unsigned>(flags.integer(kFusionWindow));
            return runClients(flags.program(), cfg,
                              static_cast<unsigned>(flags.integer(kClients)),
                              flags.text(kApp), sopts,
                              flags.text(kEnergyJson));
        }

        const std::string tdl_path = flags.positional()[0];
        const std::string params_dir = flags.given(kParams)
                                           ? flags.text(kParams)
                                           : dirName(tdl_path);
        auto binds = parseBindings(flags.text(kBind));

        std::string tdl = s2s::bindParams(readFile(tdl_path), binds);
        auto resolve = [&](const std::string &name) {
            return s2s::bindParams(readFile(params_dir + "/" + name),
                                   binds);
        };
        accel::DescriptorProgram prog = tdl::compileTdl(tdl, resolve);

        const runtime::RuntimeConfig cfg = buildConfig(flags);
        runtime::MealibRuntime rt(cfg);
        const auto repeat = static_cast<std::uint64_t>(flags.integer(kRepeat));
        const std::string energy_json = flags.text(kEnergyJson);
        if (flags.given(kOffloadPolicy) || flags.given(kDispatchJson))
            return runDispatched(
                rt, cfg, prog, repeat, flags.text(kOffloadPolicy),
                flags.text(kDispatchJson), energy_json,
                static_cast<unsigned>(flags.integer(kFusionWindow)));

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
                         flags.program().c_str(),
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
        std::fprintf(stderr, "%s: %s\n", flags.program().c_str(),
                     e.what());
        return 2;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
