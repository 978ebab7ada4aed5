#include "runtime/runtime.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "hwmodel/profile.hh"

namespace mealib::runtime {

RuntimeConfig::RuntimeConfig() : RuntimeConfig(hwmodel::activeProfile())
{
    // Defaults come from the active machine profile (MEALIB_MACHINE /
    // hwmodel::setActiveMachine), so a profile switch reconfigures every
    // runtime constructed afterwards. Sessions use the explicit-profile
    // constructor instead and never touch the mutable global.
}

RuntimeConfig::RuntimeConfig(const hwmodel::MachineProfile &m)
{
    dram = m.stackDram;
    hostCpu = m.cpu;
    mesh = m.mesh;
    integrity.checksumSecondsPerByte =
        m.checksumBytesPerSecond > 0.0
            ? 1.0 / m.checksumBytesPerSecond
            : 0.0;
    integrity.checksumJPerByte = m.checksumJPerByte;
    checkpoint.journalJPerByte = m.journalJPerByte;
}

Status
RuntimeConfig::validate() const
{
    // A bad configuration is a caller error an embedding system must be
    // able to reject and survive — report InvalidArgument instead of
    // killing the process. The constructor turns a non-ok Status into a
    // MealibError via orThrow().
    auto err = [](std::string msg) {
        return Status::error(ErrorCode::InvalidArgument,
                             std::move(msg));
    };
    if (numStacks == 0) {
        return err("runtime config: need at least one memory stack "
                   "(numStacks == 0)");
    }
    if (backingBytes == 0) {
        return err("runtime config: backing arena must be non-empty "
                   "(backingBytes == 0)");
    }
    if (commandBytes == 0) {
        return err("runtime config: command space must be non-empty "
                   "(commandBytes == 0)");
    }
    const std::uint64_t span = backingBytes / numStacks;
    if (commandBytes >= span) {
        return err("runtime config: command space (" +
                   std::to_string(commandBytes) +
                   " B) swallows stack 0's data region (" +
                   std::to_string(span) +
                   " B per stack); grow backingBytes or shrink "
                   "commandBytes");
    }
    if (queueDepth == 0) {
        return err("runtime config: per-stack command queues need a "
                   "depth of at least 1 (queueDepth == 0)");
    }
    if (Status s = fault.validate(); !s.ok())
        return s;
    if (fault.failStack != fault::kNoStack &&
        fault.failStack >= numStacks) {
        return err("runtime config: scripted failure targets stack " +
                   std::to_string(fault.failStack) + " but only " +
                   std::to_string(numStacks) +
                   " stacks are configured");
    }
    if (watchdogSeconds <= 0.0)
        return err("runtime config: watchdog timeout must be positive");
    if (retry.backoffBaseSeconds < 0.0)
        return err("runtime config: retry backoff base must be >= 0");
    if (retry.backoffMultiplier < 1.0)
        return err("runtime config: retry backoff multiplier must be "
                   ">= 1");
    if (Status s = integrity.validate(); !s.ok())
        return s;
    if (Status s = checkpoint.validate(); !s.ok())
        return s;
    if (Status s = health.validate(); !s.ok())
        return s;
    return Status();
}

namespace {

/** Validate before any member construction touches the config. */
const RuntimeConfig &
validated(const RuntimeConfig &cfg)
{
    cfg.validate().orThrow();
    return cfg;
}

/** The thread's session ledger; runtime posts mirror into it. */
thread_local EnergyLedger *tlSessionLedger = nullptr;

/** All of @p joules attributed to one physical component. */
Breakdown
energyOf(const char *component, double joules)
{
    Breakdown b;
    b.add(component, joules);
    return b;
}

} // namespace

EnergyLedger *
bindSessionLedger(EnergyLedger *ledger)
{
    EnergyLedger *previous = tlSessionLedger;
    tlSessionLedger = ledger;
    return previous;
}

EnergyLedger *
boundSessionLedger()
{
    return tlSessionLedger;
}

void
MealibRuntime::charge(const std::string &track, const Cost &c,
                      const std::string &label, const Breakdown &energy,
                      double flops)
{
    EnergyLedger *mirror =
        tlSessionLedger != &acct_.ledger ? tlSessionLedger : nullptr;
    for (EnergyLedger *l : {&acct_.ledger, mirror}) {
        if (l == nullptr)
            continue;
        l->post(track, c, label);
        for (const auto &[component, joules] : energy.parts())
            l->attribute(component, joules);
        if (flops != 0.0)
            l->addFlops(flops);
    }
}

MealibRuntime::MealibRuntime(const RuntimeConfig &cfg)
    : cfg_(validated(cfg)),
      mem_(std::make_unique<dram::PhysMem>(cfg.backingBytes)),
      host_(cfg.hostCpu), faults_(cfg.fault), mesh_(cfg.mesh),
      health_(cfg.health, cfg.numStacks)
{
    const std::uint64_t span = cfg.backingBytes / cfg.numStacks;
    // The driver reserves the contiguous region and splits it: command
    // space first (monitored by the configuration unit), then one data
    // region per memory stack (Sec. 3.3: data should be allocated on
    // the accelerator's Local Memory Stack). Each stack carries its own
    // accelerator layer so independent command queues execute in
    // parallel.
    cmdAlloc_ =
        std::make_unique<ContigAllocator>(0, cfg.commandBytes);
    for (unsigned st = 0; st < cfg.numStacks; ++st) {
        std::uint64_t base = static_cast<std::uint64_t>(st) * span +
                             (st == 0 ? cfg.commandBytes : 0);
        std::uint64_t size = span - (st == 0 ? cfg.commandBytes : 0);
        dataAllocs_.push_back(
            std::make_unique<ContigAllocator>(base, size));
        stacks_.push_back(std::make_unique<dram::Stack>(cfg.dram));
        layers_.push_back(std::make_unique<accel::AcceleratorLayer>(
            cfg.dram, cfg.mesh, cfg.functional));
        queues_.emplace_back(cfg.queueDepth);
    }
    sched_ = std::make_unique<Scheduler>(cfg.scheduler, cfg.numStacks);
}

unsigned
MealibRuntime::stackOf(Addr paddr) const
{
    const std::uint64_t span = cfg_.backingBytes / cfg_.numStacks;
    unsigned st = static_cast<unsigned>(paddr / span);
    return st < cfg_.numStacks ? st : cfg_.numStacks - 1;
}

void *
MealibRuntime::memAlloc(std::uint64_t bytes)
{
    return memAllocOn(0, bytes);
}

void *
MealibRuntime::memAllocOn(unsigned stack, std::uint64_t bytes)
{
    fatalIf(stack >= cfg_.numStacks, "memAllocOn: stack ", stack,
            " out of range (", cfg_.numStacks, " stacks)");
    std::lock_guard<std::mutex> lock(mu_);
    Addr p = dataAllocs_[stack]->alloc(bytes);
    return mem_->raw(p, bytes);
}

void
MealibRuntime::memFree(void *vptr)
{
    const Addr p = physOf(vptr);
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t freed = 0;
    dataAllocs_[stackOf(p)]->tryFree(p, &freed).orThrow();
    // A freed block's residency must die with it: the allocator may
    // hand the range to a new array the accelerators have never seen.
    residency_.dropRange(p, p + freed);
}

Addr
MealibRuntime::physOf(const void *vptr) const
{
    const std::uint8_t *base = mem_->raw(0, 0);
    const auto *p = static_cast<const std::uint8_t *>(vptr);
    fatalIf(p < base || p >= base + mem_->size(),
            "physOf: pointer is not in the mapped region");
    return static_cast<Addr>(p - base);
}

bool
MealibRuntime::tryPhysOf(const void *vptr, Addr *paddr) const
{
    const std::uint8_t *base = mem_->raw(0, 0);
    const auto *p = static_cast<const std::uint8_t *>(vptr);
    if (p < base || p >= base + mem_->size())
        return false;
    *paddr = static_cast<Addr>(p - base);
    return true;
}

void *
MealibRuntime::virtOf(Addr paddr)
{
    return mem_->raw(paddr, 0);
}

accel::AcceleratorLayer &
MealibRuntime::layer(unsigned stack)
{
    fatalIf(stack >= cfg_.numStacks, "layer: stack ", stack,
            " out of range (", cfg_.numStacks, " stacks)");
    return *layers_[stack];
}

dram::Stack &
MealibRuntime::stack(unsigned stack)
{
    fatalIf(stack >= cfg_.numStacks, "stack: stack ", stack,
            " out of range (", cfg_.numStacks, " stacks)");
    return *stacks_[stack];
}

const CommandQueue &
MealibRuntime::queue(unsigned stack) const
{
    fatalIf(stack >= cfg_.numStacks, "queue: stack ", stack,
            " out of range (", cfg_.numStacks, " stacks)");
    return queues_[stack];
}

std::uint64_t
MealibRuntime::evictDeadImages(std::size_t keep)
{
    // Collect dead (unreferenced) memo entries oldest-first and free
    // all but the `keep` most recently used.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> dead; // use,hash
    for (const auto &[hash, img] : images_)
        if (img.refs == 0)
            dead.emplace_back(img.lastUse, hash);
    if (dead.size() <= keep)
        return 0;
    std::sort(dead.begin(), dead.end());
    std::uint64_t reclaimed = 0;
    for (std::size_t i = 0; i + keep < dead.size(); ++i) {
        auto it = images_.find(dead[i].second);
        cmdAlloc_->free(it->second.descAddr);
        reclaimed += it->second.descBytes;
        images_.erase(it);
    }
    return reclaimed;
}

AccPlanHandle
MealibRuntime::accPlan(const accel::DescriptorProgram &prog)
{
    std::lock_guard<std::mutex> lock(mu_);
    Plan plan;
    plan.prog = prog;
    plan.imageHash = accel::programHash(prog);

    // Descriptor-image memo: a repeated program (same hash AND same
    // fields — sameProgram guards collisions) reuses the image already
    // sitting in the command space instead of re-encoding and copying.
    auto cached = images_.find(plan.imageHash);
    if (cached != images_.end() &&
        accel::sameProgram(cached->second.prog, prog)) {
        CachedImage &img = cached->second;
        img.refs++;
        img.lastUse = ++imageUseTick_;
        plan.descAddr = img.descAddr;
        plan.descBytes = img.descBytes;
        plan.imageCached = true;
        acct_.planImageReuses++;
    } else {
        const bool collision = cached != images_.end();
        std::vector<std::uint8_t> image = accel::encode(prog);
        plan.descBytes = image.size();
        Status s = cmdAlloc_->tryAlloc(plan.descBytes, &plan.descAddr);
        if (!s.ok() && s.code() == ErrorCode::Exhausted) {
            // Dead memo entries are a cache, not a reservation: give
            // their space back and retry before reporting exhaustion.
            if (evictDeadImages(0) > 0)
                s = cmdAlloc_->tryAlloc(plan.descBytes, &plan.descAddr);
        }
        if (!s.ok()) {
            throw MealibError(Status::error(
                s.code(), "accPlan: command space exhausted (" +
                              s.message() + ")"));
        }
        std::memcpy(mem_->raw(plan.descAddr, plan.descBytes),
                    image.data(), image.size());
        if (!collision) {
            CachedImage img;
            img.descAddr = plan.descAddr;
            img.descBytes = plan.descBytes;
            img.refs = 1;
            img.lastUse = ++imageUseTick_;
            img.prog = prog;
            images_.emplace(plan.imageHash, std::move(img));
            plan.imageCached = true;
        }
    }

    // Footprint the host may hold dirty in its caches: one iteration's
    // input operands per COMP (flushCost clamps at LLC capacity).
    double dirty = 0.0;
    for (const accel::Instr &in : prog.instrs)
        if (in.type == accel::Instr::Type::Comp)
            dirty += in.call.inputBytes();
    plan.dirtyBytes = static_cast<std::uint64_t>(
        std::min(dirty, 1.0e9));

    // Hazard footprint for the asynchronous submit path.
    plan.intervals = accessIntervals(prog);

    // Integrity/checkpoint footprint: the operand bytes a verification
    // pass streams, and the written bytes a snapshot journals.
    plan.expandedComps = prog.expandedCompCount();
    plan.rerunSafe = rerunSafe(prog);
    for (const AccessInterval &iv : plan.intervals) {
        const std::uint64_t n = iv.hi > iv.lo ? iv.hi - iv.lo : 0;
        plan.transferBytes += n;
        if (iv.write)
            plan.writeBytes += n;
    }

    AccPlanHandle h = nextHandle_++;
    plans_.emplace(h, std::move(plan));
    return h;
}

unsigned
MealibRuntime::homeStackOf(const accel::DescriptorProgram &prog) const
{
    for (const accel::Instr &in : prog.instrs)
        if (in.type == accel::Instr::Type::Comp)
            return stackOf(in.call.out.base);
    return 0;
}

unsigned
MealibRuntime::homeStackOf(AccPlanHandle handle) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(handle);
    fatalIf(it == plans_.end(), "homeStackOf: unknown plan handle ",
            handle);
    return homeStackOf(it->second.prog);
}

Cost
MealibRuntime::remotePenalty(const accel::DescriptorProgram &prog,
                             unsigned home, double *remoteBytes) const
{
    // Operands on Remote Memory Stacks cross the HMC-style serial
    // links: cheaper than going through the host, but far below the
    // internal TSV bandwidth (Sec. 3.3).
    double bytes = 0.0;
    accel::LoopSpec active;
    std::uint32_t remaining = 0;
    for (const accel::Instr &in : prog.instrs) {
        if (in.type == accel::Instr::Type::Loop) {
            active = in.loop;
            remaining = in.bodyCount;
            continue;
        }
        if (in.type == accel::Instr::Type::Comp) {
            accel::LoopSpec loop = remaining ? active
                                             : accel::LoopSpec{};
            for (const accel::OperandTraffic &t :
                 accel::operandTraffic(in.call, loop)) {
                if (stackOf(t.op->base) != home)
                    bytes += t.bytes;
            }
        }
        if (remaining && --remaining == 0)
            active = accel::LoopSpec{};
    }
    if (remoteBytes)
        *remoteBytes = bytes;

    Cost c;
    if (bytes > 0.0) {
        double link_bw = cfg_.dram.org.linkBandwidth;
        double internal_bw = cfg_.dram.peakInternalBandwidth();
        double slowdown = 1.0 / link_bw - 1.0 / internal_bw;
        c.seconds = bytes * (slowdown > 0.0 ? slowdown : 0.0);
        c.joules = bytes * cfg_.linkJPerByte;
    }
    return c;
}

void
MealibRuntime::hostWork(double seconds)
{
    hostSeconds_ += seconds;
    acct_.hostBusySeconds += seconds;
}

void
MealibRuntime::hostWaitUntil(double seconds)
{
    if (seconds > hostSeconds_)
        hostSeconds_ = seconds;
}

void
MealibRuntime::updateMakespan()
{
    double frontier = hostSeconds_;
    for (const CommandQueue &q : queues_)
        frontier = std::max(frontier, q.busyUntilSeconds());
    acct_.makespanSeconds = std::max(acct_.makespanSeconds, frontier);
}

Event
MealibRuntime::accSubmit(AccPlanHandle handle)
{
    std::lock_guard<std::mutex> lock(mu_);
    return accSubmitLocked(handle);
}

Event
MealibRuntime::accSubmitLocked(AccPlanHandle handle)
{
    auto it = plans_.find(handle);
    fatalIf(it == plans_.end(), "accSubmit: unknown plan handle ",
            handle);
    applyScriptedFailure();
    // Promote quarantined stacks whose cooldown has elapsed, then give
    // any probation stack the next scheduler-routed command as its
    // canary: the probe costs one real command, not synthetic traffic.
    for (unsigned st : health_.beginCommand(cmdIndex_))
        sched_->setAvailable(st, true);
    unsigned home = homeStackOf(it->second.prog);
    // With no survivor left the target is moot: accSubmitOn reroutes an
    // unhealthy target to the host (or a FAILED event) on its own.
    unsigned target =
        sched_->healthyCount() > 0 ? sched_->pick(home) : home;
    const unsigned canary = health_.canaryTarget();
    if (canary != StackHealthMonitor::kNone && !sched_->failed(canary))
        target = canary;
    return accSubmitOnLocked(handle, target);
}

Event
MealibRuntime::accSubmitOn(AccPlanHandle handle, unsigned stackIdx)
{
    std::lock_guard<std::mutex> lock(mu_);
    return accSubmitOnLocked(handle, stackIdx);
}

Event
MealibRuntime::accSubmitOnLocked(AccPlanHandle handle, unsigned stackIdx)
{
    auto it = plans_.find(handle);
    fatalIf(it == plans_.end(), "accSubmit: unknown plan handle ",
            handle);
    // An out-of-range stack is a recoverable caller error, not a
    // process-killing one: report it on the returned event.
    if (stackIdx >= cfg_.numStacks) {
        return submitError(Status::error(
            ErrorCode::InvalidArgument,
            "accSubmitOn: stack " + std::to_string(stackIdx) +
                " out of range (" + std::to_string(cfg_.numStacks) +
                " stacks)"));
    }
    Plan &plan = it->second;

    applyScriptedFailure();
    for (unsigned st : health_.beginCommand(cmdIndex_))
        sched_->setAvailable(st, true);
    if (sched_->failed(stackIdx)) {
        // The caller's target is dead: steer to a survivor, fall back
        // to the host, or report the loss — never submit to it.
        if (sched_->healthyCount() > 0) {
            stackIdx = sched_->pick(stackIdx);
        } else if (cfg_.retry.hostFallback) {
            return submitOnHost(plan, stackIdx, 0);
        } else {
            return submitError(Status::error(
                ErrorCode::DeviceFailed,
                "accSubmitOn: every stack has failed and host "
                "fallback is disabled"));
        }
    }

    // 1. Coherence: write back dirty lines so the memory-side view is
    //    current (wbinvd, Sec. 3.5). With residency tracking on, read
    //    operands the accelerators produced — and the host has not
    //    touched since — are already coherent in stack memory, so the
    //    flush shrinks to the host-dirtied remainder (and disappears
    //    entirely when the whole read set is clean-on-stack).
    const bool residencyOn = cfg_.residency.enabled;
    std::uint64_t effDirtyBytes = plan.dirtyBytes;
    if (residencyOn) {
        const std::uint64_t readB =
            ResidencyTracker::readBytes(plan.intervals);
        const std::uint64_t cleanB =
            residency_.flushCleanReadBytes(plan.intervals);
        if (readB > 0 && cleanB >= readB) {
            effDirtyBytes = 0;
        } else if (readB > 0 && cleanB > 0) {
            const double frac = static_cast<double>(cleanB) /
                                static_cast<double>(readB);
            effDirtyBytes = static_cast<std::uint64_t>(
                static_cast<double>(plan.dirtyBytes) * (1.0 - frac));
        }
        acct_.flushBytesElided += plan.dirtyBytes - effDirtyBytes;
        if (effDirtyBytes < plan.dirtyBytes)
            charge("reuse", Cost{}, "flush_elided");
    }
    Cost flush = effDirtyBytes > 0 || !residencyOn
                     ? host_.flushCost(effDirtyBytes)
                     : Cost{};

    // 2. Descriptor copy + START write + DONE poll over the host links.
    double link_bw = cfg_.dram.org.linkBandwidth;
    Cost handshake;
    handshake.seconds = static_cast<double>(plan.descBytes) / link_bw +
                        2.0e-6; // two link round trips
    handshake.joules = cfg_.hostCpu.idleW * handshake.seconds;

    // 3. Hand the arrays to the accelerators (exclusive ownership).
    //    Functional execution happens eagerly in submission order;
    //    hazard chains below guarantee that any order the timeline
    //    could legally report computes these same values.
    const std::uint8_t *img = mem_->raw(plan.descAddr, plan.descBytes);
    accel::writeCommand(mem_->raw(plan.descAddr, plan.descBytes),
                        plan.descBytes, accel::Command::Start);
    accel::DescriptorProgram prog =
        accel::decode(img, plan.descBytes);

    // End-to-end verification, functional side: checksum the read-only
    // operand bytes before and after the execute. The fault model
    // never corrupts real buffers (faults shape cost, not values), so
    // a mismatch here means the functional engine itself scribbled
    // over an input — a broken invariant worth catching in situ. Bytes
    // some COMP of the plan writes are legitimately rewritten (a
    // chained intermediate a later COMP reads), so only the read bytes
    // no write interval covers are checked.
    const bool verifyFunctional =
        cfg_.functional && cfg_.integrity.enabled();
    IntervalSet readOnly;
    if (verifyFunctional) {
        for (const AccessInterval &iv : plan.intervals)
            if (!iv.write)
                readOnly.insert(std::min<Addr>(iv.lo, mem_->size()),
                                std::min<Addr>(iv.hi, mem_->size()));
        for (const AccessInterval &iv : plan.intervals)
            if (iv.write)
                readOnly.erase(iv.lo, iv.hi);
    }
    auto readChecksum = [&]() {
        fault::Checksum ck;
        for (const auto &[lo, hi] : readOnly.ranges())
            ck.update(mem_->raw(lo, hi - lo), hi - lo);
        return ck.value();
    };
    const std::uint64_t srcSum = verifyFunctional ? readChecksum() : 0;

    stacks_[stackIdx]->acquire(dram::Owner::Accelerator);
    accel::ExecStats es = layers_[stackIdx]->execute(prog, *mem_);
    stacks_[stackIdx]->release(dram::Owner::Accelerator);

    if (verifyFunctional) {
        panicIf(readChecksum() != srcSum,
                "integrity: read-only operand bytes changed during "
                "execution (functional engine corrupted an input "
                "interval)");
    }

    // Inter-stack traffic for operands left on stacks remote to the
    // one that executed the plan.
    if (cfg_.numStacks > 1) {
        Cost remote = remotePenalty(prog, stackIdx, &es.remoteBytes);
        es.total += remote;
        es.remote = remote;
    }

    accel::writeCommand(mem_->raw(plan.descAddr, plan.descBytes),
                        plan.descBytes, accel::Command::Done);

    // Everything accounted so far occupies the stack; the flush and
    // handshake below occupy the host track instead.
    const double accelSpan = es.total.seconds;
    const double accelJoules = es.total.joules;

    // Roll the fault ladder for this command. The functional results
    // above were computed exactly once and are final either way: faults
    // only shape cost, occupancy and the event's terminal state.
    const std::uint64_t cmd = cmdIndex_++;
    // Verification footprint: with residency on, intervals whose cached
    // checksum is still valid (verified earlier, untouched since) are
    // skipped by both the host-side and stack-side passes.
    std::uint64_t effVerifyBytes = plan.transferBytes;
    if (residencyOn && cfg_.integrity.enabled()) {
        const std::uint64_t cleanV =
            residency_.verifyCleanBytes(plan.intervals);
        effVerifyBytes = cleanV < plan.transferBytes
                             ? plan.transferBytes - cleanV
                             : 0;
        // Two passes (host + stack) skip these bytes each.
        acct_.verifyBytesElided +=
            2 * (plan.transferBytes - effVerifyBytes);
        if (effVerifyBytes < plan.transferBytes)
            charge("reuse", Cost{}, "verify_elided");
    }
    // Host-side source checksum: one pass over the operand footprint
    // before the transfer (the re-verify passes after link crossings
    // and vault reads are stack-side, charged per attempt below).
    Cost integHost;
    if (cfg_.integrity.enabled())
        integHost = fault::checksumCost(cfg_.integrity,
                                        static_cast<double>(
                                            effVerifyBytes));
    Attempts at;
    if (faults_.enabled()) {
        at = resolveAttempts(cmd, stackIdx, accelSpan, accelJoules,
                             plan, effVerifyBytes);
        es.retries = at.retries;
        es.faultPenalty = at.penalty;
        es.total += at.penalty;
        acct_.retryCount += at.retries;
    } else {
        // Fault-free: one stack-side re-verify pass and the base
        // checkpoint schedule (the overhead the chaos harness trades
        // against recovery latency). This is exactly where the faulty
        // path converges as every rate goes to zero.
        if (cfg_.integrity.enabled())
            at.integrity += fault::checksumCost(
                cfg_.integrity,
                static_cast<double>(effVerifyBytes));
        if (checkpointed(plan)) {
            const std::uint64_t comps = plan.expandedComps;
            const std::uint64_t ival = cfg_.checkpoint.intervalComps;
            const std::uint64_t last = (comps - 1) / ival;
            const Cost snap = snapshotCost(plan);
            for (std::uint64_t k = 1; k <= last; ++k) {
                at.integrity += snap;
                journal_.record({cmd, stackIdx, k * ival,
                                 static_cast<double>(k * ival) /
                                     static_cast<double>(comps),
                                 plan.writeBytes});
            }
            at.checkpoints = last;
        }
        at.occupancySeconds = accelSpan + at.integrity.seconds;
    }
    es.integrity = at.integrity + integHost;
    es.total += es.integrity;
    es.checkpoints = at.checkpoints;
    es.resumed = at.resumed;
    acct_.silentDetected += at.silentDetected;
    acct_.silentUndetected += at.silentUndetected;
    acct_.checkpointsTaken += at.checkpoints;

    // Feed the health monitor: a command counts as faulted when it
    // needed the recovery ladder (in-line corrected ECC is latency, not
    // a health signal). A struck-out stack dies after this command's
    // event is placed, so the drain below re-homes it too.
    unsigned strikeOut = StackHealthMonitor::kNone;
    if (faults_.enabled() && health_.enabled()) {
        const bool faulted = at.retries > 0 || !at.success ||
                             at.silentDetected > 0;
        strikeOut = recordHealth(stackIdx, cmd, faulted);
    }

    // Fold the software-side invocation costs into the stats.
    es.invocation += flush + handshake;
    es.total += flush + handshake;

    Cost accel_only{es.total.seconds - es.invocation.seconds -
                        es.integrity.seconds,
                    es.total.joules - es.invocation.joules -
                        es.integrity.joules};
    for (const auto &[k, v] : es.timeByAccel.parts())
        acct_.timeByAccel.add(k, v);
    for (const auto &[k, v] : es.energyByAccel.parts())
        acct_.energyByAccel.add(k, v);

    // Charge the ledger and attribute the energy to physical components
    // (the attribution view covers the whole posted energy:
    // dram+logic+noc+link+fault == the accel track, "invocation" the
    // invocation track).
    charge("invocation", es.invocation, "flush+handshake",
           energyOf("invocation", es.invocation.joules));
    Breakdown accelEnergy = es.energyByComponent;
    if (es.remote.joules != 0.0)
        accelEnergy.add("link", es.remote.joules);
    if (es.faultPenalty.joules != 0.0)
        accelEnergy.add("fault", es.faultPenalty.joules);
    charge("accel", accel_only, "execute", accelEnergy, es.flops);
    if (es.integrity.seconds != 0.0 || es.integrity.joules != 0.0)
        charge("integrity", es.integrity, "verify+journal",
               energyOf("integrity", es.integrity.joules));

    // --- timeline: place the command on its stack's queue -------------
    hostWork(flush.seconds + handshake.seconds + integHost.seconds);
    CommandQueue &q = queues_[stackIdx];
    hostWaitUntil(q.admitSeconds(hostSeconds_)); // stall on a full queue
    q.retireUpTo(hostSeconds_);

    // Retire hazard records the host clock has already passed: a new
    // command cannot start before the host submitted it.
    std::erase_if(pending_, [&](const PendingAccess &pa) {
        return pa.finishSeconds <= hostSeconds_;
    });

    double ready = hostSeconds_;
    for (const PendingAccess &pa : pending_)
        for (const AccessInterval &iv : plan.intervals)
            if (iv.conflictsWith(pa.interval))
                ready = std::max(ready, pa.finishSeconds);

    // Stack occupancy: clean span plus verification, journaling and any
    // fault-recovery time.
    const double occupancy = at.occupancySeconds;

    const double start = std::max(ready, q.busyUntilSeconds());
    const double finish = start + occupancy;
    q.push(start, finish);
    acct_.busyByStack.add("stack" + std::to_string(stackIdx),
                          occupancy);

    auto state = std::make_shared<detail::EventState>();
    state->id = nextEventId_++;
    state->stack = stackIdx;
    state->submitSeconds = hostSeconds_;
    state->startSeconds = start;
    state->finishSeconds = finish;
    state->epoch = epoch_;
    state->spanSeconds = occupancy;
    state->intervals = plan.intervals;
    state->command = cmd;
    // Replay granularity for a post-hoc stack death: the fraction of
    // the command one checkpoint interval covers (0 = not replayable).
    state->checkpointStep =
        checkpointed(plan) && plan.expandedComps > 0
            ? static_cast<double>(cfg_.checkpoint.intervalComps) /
                  static_cast<double>(plan.expandedComps)
            : 0.0;

    for (const AccessInterval &iv : plan.intervals)
        pending_.push_back({iv, finish, state->id});

    if (at.success) {
        state->state = at.resumed  ? EventState::Resumed
                       : at.retries ? EventState::Retried
                                    : EventState::Done;
        if (at.resumed)
            acct_.resumedFromCheckpoint++;
        state->stats = es;
        inflight_.push_back(state);
        // The command's operands now live clean on the stack: reads
        // were flushed (or already clean), writes were produced there.
        // With integrity on they were also verified this command, so
        // the cached checksum stays valid until a host write.
        if (residencyOn)
            residency_.commit(plan.intervals, cfg_.integrity.enabled());
    } else if (cfg_.retry.hostFallback) {
        // Retry budget exhausted on the accelerator: the stack burned
        // `occupancy` on dead attempts, then the host re-executes the
        // plan natively (the minimkl naive-kernel cost model). The
        // fallback is synchronous on the host track, so the event is
        // already complete when the submit returns.
        hostWaitUntil(finish);
        es.total += fallBackToHost(es);
        es.fellBack = true;
        state->state = EventState::FellBack;
        state->onHost = true;
        state->finishSeconds = hostSeconds_;
        state->stats = es;
        state->waited = true;
        // The host produced the results: its caches hold them dirty,
        // so the written intervals are no longer clean-on-stack.
        if (residencyOn)
            residency_.invalidateWrites(plan.intervals);
    } else {
        // No recovery left: the command terminates without a result.
        state->state = at.lastFault == fault::FaultKind::CommandHang
                           ? EventState::TimedOut
                           : EventState::Failed;
        state->status = Status::error(
            state->state == EventState::TimedOut
                ? ErrorCode::Timeout
                : ErrorCode::DeviceFailed,
            std::string("command ") + std::to_string(cmd) +
                " exhausted its retry budget on stack " +
                std::to_string(stackIdx) + " (last fault: " +
                fault::name(at.lastFault) + ")");
        state->stats = es;
        inflight_.push_back(state);
        // A failed/timed-out command leaves its output intervals in an
        // untrusted state: drop any residency they had.
        if (residencyOn)
            residency_.invalidateAll(plan.intervals);
    }
    updateMakespan();
    // A struck-out stack dies only after this command's event has been
    // placed, so the failStack drain re-homes it along with the rest.
    if (strikeOut != StackHealthMonitor::kNone)
        failStackLocked(strikeOut);
    return Event(this, state);
}

const accel::ExecStats &
MealibRuntime::eventWait(const std::shared_ptr<detail::EventState> &state)
{
    std::lock_guard<std::mutex> lock(mu_);
    return eventWaitLocked(state);
}

const accel::ExecStats &
MealibRuntime::eventWaitLocked(
    const std::shared_ptr<detail::EventState> &state)
{
    // Events submitted before a resetAccounting() are stale: their
    // times belong to a discarded timeline, so waiting is a no-op.
    if (state->epoch == epoch_ && !state->waited) {
        hostWaitUntil(state->finishSeconds);
        std::erase(inflight_, state);
        updateMakespan();
    }
    state->waited = true;
    return state->stats;
}

void
MealibRuntime::waitAll()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &state : inflight_) {
        hostWaitUntil(state->finishSeconds);
        state->waited = true;
    }
    inflight_.clear();
    // Every recorded access has finished by now.
    pending_.clear();
    for (CommandQueue &q : queues_)
        q.retireUpTo(hostSeconds_);
    updateMakespan();
}

accel::ExecStats
MealibRuntime::accExecute(AccPlanHandle handle)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(handle);
    fatalIf(it == plans_.end(), "accExecute: unknown plan handle ",
            handle);
    // The paper's blocking Listing-2 semantics: submit on the plan's
    // home stack, then poll DONE. One lock span covers both so another
    // session cannot interleave between a blocking submit and its wait.
    Event ev =
        accSubmitOnLocked(handle, homeStackOf(it->second.prog));
    return eventWaitLocked(ev.state_);
}

void
MealibRuntime::accDestroy(AccPlanHandle handle)
{
    // A handful of dead images stay memoized so plan/destroy loops over
    // the same program hit the cache; beyond that they are evicted LRU
    // so the command space is not pinned by history.
    constexpr std::size_t kDeadImageCap = 16;

    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(handle);
    fatalIf(it == plans_.end(), "accDestroy: unknown plan handle ",
            handle);
    const Plan &plan = it->second;
    auto cached = images_.find(plan.imageHash);
    if (plan.imageCached && cached != images_.end() &&
        cached->second.descAddr == plan.descAddr) {
        fatalIf(cached->second.refs == 0,
                "accDestroy: image refcount underflow");
        cached->second.refs--;
        evictDeadImages(kDeadImageCap);
    } else {
        cmdAlloc_->free(plan.descAddr);
    }
    plans_.erase(it);
}

// --- degradation & fault injection (docs/FAULTS.md) -------------------

void
MealibRuntime::applyScriptedFailure()
{
    const fault::FaultConfig &fc = cfg_.fault;
    if (fc.failStack == fault::kNoStack || sched_->failed(fc.failStack))
        return;
    if (cmdIndex_ >= fc.failStackAfter)
        failStackLocked(fc.failStack);
}

void
MealibRuntime::failStack(unsigned stackIdx)
{
    std::lock_guard<std::mutex> lock(mu_);
    failStackLocked(stackIdx);
}

void
MealibRuntime::failStackLocked(unsigned stackIdx)
{
    fatalIf(stackIdx >= cfg_.numStacks, "failStack: stack ", stackIdx,
            " out of range (", cfg_.numStacks, " stacks)");
    if (sched_->failed(stackIdx))
        return;
    sched_->markFailed(stackIdx);
    health_.markDead(stackIdx);
    faults_.record({fault::FaultKind::StackFailure, stackIdx,
                    cmdIndex_, 0});

    // Nothing on a dead stack can be trusted as clean or verified.
    const std::uint64_t stackSpan = cfg_.backingBytes / cfg_.numStacks;
    residency_.dropRange(static_cast<Addr>(stackIdx) * stackSpan,
                         static_cast<Addr>(stackIdx + 1) * stackSpan);

    // Cancel everything still occupying the dead stack past `now`.
    const double now = hostSeconds_;
    CommandQueue &q = queues_[stackIdx];
    const double before = q.busySeconds();
    q.cancelFrom(now);
    acct_.busyByStack.add("stack" + std::to_string(stackIdx),
                          q.busySeconds() - before);

    // Re-home the killed commands in submission order. Their functional
    // results are already final (computed eagerly at submit), so the
    // drain only re-places occupancy: on a survivor the scheduler
    // picks, or — with none left — on the host track.
    std::vector<std::shared_ptr<detail::EventState>> drained;
    for (const auto &state : inflight_)
        if (state->stack == stackIdx && !state->onHost &&
            !state->waited && state->finishSeconds > now)
            drained.push_back(state);

    for (const auto &state : drained) {
        acct_.retryCount++;
        state->stats.retries++;
        // A drained command's destination is decided below; until it
        // completes there, none of its intervals count as resident.
        residency_.invalidateAll(state->intervals);
        std::erase_if(pending_, [&](const PendingAccess &pa) {
            return pa.owner == state->id;
        });
        if (sched_->healthyCount() > 0) {
            unsigned dest = sched_->pick(stackIdx);
            CommandQueue &q2 = queues_[dest];
            double ready = std::max(now, q2.busyUntilSeconds());
            for (const PendingAccess &pa : pending_)
                for (const AccessInterval &iv : state->intervals)
                    if (iv.conflictsWith(pa.interval))
                        ready = std::max(ready, pa.finishSeconds);
            // Checkpoint replay: resume from the last snapshot the
            // dead stack committed before the command's execution
            // point, instead of re-running the command from scratch.
            double resumeFrac = 0.0;
            if (state->checkpointStep > 0.0) {
                const double total =
                    state->finishSeconds - state->startSeconds;
                const double execFrac =
                    total > 0.0
                        ? std::clamp((now - state->startSeconds) /
                                         total,
                                     0.0, 1.0)
                        : 0.0;
                resumeFrac = journal_.lastFractionAtOrBefore(
                    state->command, execFrac);
            }
            const double span = state->spanSeconds * (1.0 - resumeFrac);
            q2.push(ready, ready + span);
            acct_.busyByStack.add("stack" + std::to_string(dest), span);
            state->stack = dest;
            state->startSeconds = ready;
            state->finishSeconds = ready + span;
            if (resumeFrac > 0.0) {
                state->state = EventState::Resumed;
                state->stats.resumed = true;
                acct_.resumedFromCheckpoint++;
            } else {
                state->state = EventState::Retried;
            }
            for (const AccessInterval &iv : state->intervals)
                pending_.push_back({iv, state->finishSeconds,
                                    state->id});
        } else if (cfg_.retry.hostFallback) {
            const Cost c = fallBackToHost(state->stats);
            state->stats.fellBack = true;
            state->stats.total += c;
            state->state = EventState::FellBack;
            state->onHost = true;
            state->startSeconds = hostSeconds_ - c.seconds;
            state->finishSeconds = hostSeconds_;
            state->waited = true;
        } else {
            state->state = EventState::Failed;
            state->status = Status::error(
                ErrorCode::DeviceFailed,
                "stack " + std::to_string(stackIdx) +
                    " failed with no survivor and host fallback "
                    "disabled");
            state->finishSeconds = now;
        }
    }
    updateMakespan();
}

bool
MealibRuntime::stackFailed(unsigned stackIdx) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sched_->failed(stackIdx);
}

unsigned
MealibRuntime::healthyStackCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sched_->healthyCount();
}

StackHealth
MealibRuntime::stackHealth(unsigned stackIdx) const
{
    fatalIf(stackIdx >= cfg_.numStacks, "stackHealth: stack ",
            stackIdx, " out of range (", cfg_.numStacks, " stacks)");
    std::lock_guard<std::mutex> lock(mu_);
    return health_.state(stackIdx);
}

unsigned
MealibRuntime::selectableStackCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sched_->selectableCount();
}

unsigned
MealibRuntime::recordHealth(unsigned stackIdx, std::uint64_t cmd,
                            bool faulted)
{
    const StackHealthMonitor::Action act =
        health_.recordOutcome(stackIdx, cmd, faulted);
    acct_.quarantines = health_.quarantines();
    acct_.readmissions = health_.readmissions();
    // Quarantine and death both mean the stack's recent behaviour is
    // suspect: anything it holds loses clean/verified status.
    const std::uint64_t stackSpan = cfg_.backingBytes / cfg_.numStacks;
    switch (act) {
    case StackHealthMonitor::Action::Quarantine:
        sched_->setAvailable(stackIdx, false);
        residency_.dropRange(static_cast<Addr>(stackIdx) * stackSpan,
                             static_cast<Addr>(stackIdx + 1) *
                                 stackSpan);
        break;
    case StackHealthMonitor::Action::Readmit:
        sched_->setAvailable(stackIdx, true);
        break;
    case StackHealthMonitor::Action::Die:
        sched_->setAvailable(stackIdx, false);
        residency_.dropRange(static_cast<Addr>(stackIdx) * stackSpan,
                             static_cast<Addr>(stackIdx + 1) *
                                 stackSpan);
        return stackIdx;
    case StackHealthMonitor::Action::None:
        break;
    }
    return StackHealthMonitor::kNone;
}

bool
MealibRuntime::checkpointed(const Plan &plan) const
{
    // Only rerun-safe programs checkpoint: resuming an unsafe one from
    // a snapshot would re-apply an accumulation or re-read an already
    // overwritten input, so those keep whole-command retry semantics.
    return cfg_.checkpoint.enabled() && plan.rerunSafe &&
           plan.expandedComps > 0;
}

Cost
MealibRuntime::snapshotCost(const Plan &plan) const
{
    // One snapshot journals the command's written intervals through the
    // stack-internal TSV bandwidth — a read+write round trip priced by
    // the machine profile's journal energy.
    Cost c;
    const double bw = cfg_.dram.peakInternalBandwidth();
    const double bytes = static_cast<double>(plan.writeBytes);
    if (bw > 0.0)
        c.seconds = bytes / bw;
    c.joules = bytes * cfg_.checkpoint.journalJPerByte;
    return c;
}

MealibRuntime::Attempts
MealibRuntime::resolveAttempts(std::uint64_t cmd, unsigned stackIdx,
                               double spanSeconds, double accelJoules,
                               const Plan &plan,
                               std::uint64_t effVerifyBytes)
{
    /** HMC-style request packet re-sent after a CRC failure. */
    constexpr std::uint64_t kCrcPacketBytes = 128;

    const bool integrityOn = cfg_.integrity.enabled();
    const bool ckpt = checkpointed(plan);
    const std::uint64_t comps = plan.expandedComps;
    const std::uint64_t ival = ckpt ? cfg_.checkpoint.intervalComps : 0;
    const std::uint64_t kmax = ckpt ? (comps - 1) / ival : 0;
    const Cost snap = ckpt ? snapshotCost(plan) : Cost{};
    const Cost verify =
        integrityOn
            ? fault::checksumCost(cfg_.integrity,
                                  static_cast<double>(effVerifyBytes))
            : Cost{};

    Attempts at;
    const dram::Stack &st = *stacks_[stackIdx];
    // Comps whose results a *committed* checkpoint already holds: a
    // retry resumes past them instead of re-running the whole command.
    // Snapshots commit only once their provenance is trusted —
    // immediately at the failure point for detected faults (the
    // hardware knows where it died), but only after the end-of-attempt
    // verification for silent corruption (commit-on-verify).
    std::uint64_t committed = 0;
    auto commitUpTo = [&](std::uint64_t newK) {
        for (std::uint64_t k = committed / ival + 1; k <= newK; ++k) {
            at.integrity += snap;
            journal_.record({cmd, stackIdx, k * ival,
                             static_cast<double>(k * ival) /
                                 static_cast<double>(comps),
                             plan.writeBytes});
            at.checkpoints++;
        }
        committed = newK * ival;
    };
    double backoff = cfg_.retry.backoffBaseSeconds;
    for (unsigned attempt = 0;; ++attempt) {
        // Fraction of the command this attempt still has to execute.
        const double base =
            ckpt && comps ? static_cast<double>(committed) /
                                static_cast<double>(comps)
                          : 0.0;
        const double attemptFrac = 1.0 - base;
        if (base > 0.0)
            at.resumed = true;
        fault::FaultPlan p = faults_.roll(cmd, attempt);
        if (p.eccCorrected > 0) {
            // In-line vault ECC corrections: latency-only, the attempt
            // still completes.
            at.penalty.seconds +=
                p.eccCorrected * st.eccCorrectPenaltySeconds();
            acct_.eccCorrected += p.eccCorrected;
            faults_.record({fault::FaultKind::EccCorrectable, stackIdx,
                            cmd, attempt});
        }
        if (p.succeeds()) {
            // The attempt ran to completion; the stack-side re-verify
            // pass is the end-to-end integrity check.
            if (integrityOn)
                at.integrity += verify;
            const bool detected = p.silent && integrityOn;
            if (p.silent && !integrityOn) {
                // Undetected silent corruption: the run "succeeds"
                // carrying wrong data. Counted for the chaos harness;
                // the functional results stay the clean ones (the
                // fault model shapes cost, never values).
                at.silentUndetected++;
                faults_.record({fault::FaultKind::SilentCorruption,
                                stackIdx, cmd, attempt});
            }
            if (!detected) {
                if (ckpt && kmax > 0)
                    commitUpTo(kmax);
                at.success = true;
                at.retries = attempt;
                if (base > 0.0) {
                    // The resumed attempt skipped the committed
                    // prefix; credit the span it never executed.
                    at.penalty.seconds -= base * spanSeconds;
                    at.penalty.joules -= base * accelJoules;
                }
                at.occupancySeconds = spanSeconds +
                                      at.penalty.seconds +
                                      at.integrity.seconds;
                return at;
            }
            // Verification caught the corruption at end of attempt:
            // the whole attempt span is wasted, and its snapshots were
            // written but never commit — the corruption point is
            // unknown, so none of them can be trusted.
            at.silentDetected++;
            faults_.record({fault::FaultKind::SilentCorruption,
                            stackIdx, cmd, attempt});
            at.lastFault = fault::FaultKind::SilentCorruption;
            at.penalty.seconds += spanSeconds * attemptFrac;
            at.penalty.joules += accelJoules * attemptFrac;
            if (ckpt) {
                const std::uint64_t crossed = kmax - committed / ival;
                for (std::uint64_t k = 0; k < crossed; ++k)
                    at.integrity += snap;
                at.checkpoints += crossed;
            }
        } else if (p.hang) {
            // DONE never arrives; the watchdog reclaims the stack.
            // Nothing executed, so no verify pass and no checkpoint
            // advances.
            at.penalty.seconds += cfg_.watchdogSeconds;
            acct_.watchdogFires++;
            faults_.record({fault::FaultKind::CommandHang, stackIdx,
                            cmd, attempt});
            at.lastFault = fault::FaultKind::CommandHang;
        } else {
            // A transient fault killed the attempt partway through:
            // the attempt-span fraction already executed is wasted,
            // plus the fault's own detection / replay penalty.
            at.penalty.seconds +=
                spanSeconds * attemptFrac * p.failFraction;
            at.penalty.joules +=
                accelJoules * attemptFrac * p.failFraction;
            if (p.failure == fault::FaultKind::LinkCrc)
                at.penalty += mesh_.crcReplayCost(kCrcPacketBytes);
            else if (p.failure == fault::FaultKind::EccUncorrectable)
                at.penalty.seconds +=
                    st.eccUncorrectableDetectSeconds();
            faults_.record({p.failure, stackIdx, cmd, attempt});
            at.lastFault = p.failure;
            // The fault was *detected* at the failure point, so every
            // snapshot crossed before it is trusted and commits — the
            // next attempt resumes from the last of them.
            if (ckpt) {
                const std::uint64_t execComps =
                    committed +
                    static_cast<std::uint64_t>(
                        static_cast<double>(comps - committed) *
                        p.failFraction);
                const std::uint64_t newK =
                    std::min(execComps / ival, kmax);
                if (newK > committed / ival)
                    commitUpTo(newK);
            }
        }
        if (attempt >= cfg_.retry.maxRetries) {
            at.success = false;
            at.retries = cfg_.retry.maxRetries;
            at.occupancySeconds =
                at.penalty.seconds + at.integrity.seconds;
            at.committedFraction =
                comps ? static_cast<double>(committed) /
                            static_cast<double>(comps)
                      : 0.0;
            return at;
        }
        at.penalty.seconds += backoff;
        backoff *= cfg_.retry.backoffMultiplier;
    }
}

Event
MealibRuntime::submitError(Status status)
{
    auto state = std::make_shared<detail::EventState>();
    state->id = nextEventId_++;
    state->epoch = epoch_;
    state->waited = true;
    state->state = EventState::Failed;
    state->status = std::move(status);
    return Event(this, state);
}

Cost
MealibRuntime::fallBackToHost(const accel::ExecStats &es)
{
    // The minimkl naive kernels the host falls back to: scalar
    // (1/8 of SIMD issue), single-threaded, cache-unfriendly streaming.
    host::KernelProfile p;
    p.name = "fault_fallback";
    p.flops = es.flops;
    p.bytesRead = 0.5 * es.bytesMoved;
    p.bytesWritten = 0.5 * es.bytesMoved;
    p.simdEff = 0.125;
    p.parallelFraction = 0.0;
    p.memEff = 0.5;
    const Cost c = host_.run(p);
    hostWork(c.seconds);
    charge("host", c, "fault_fallback", energyOf("host", c.joules));
    acct_.fallbackSeconds += c.seconds;
    acct_.fallbackCount++;
    return c;
}

Event
MealibRuntime::submitOnHost(Plan &plan, unsigned targetStack,
                            unsigned retries)
{
    cmdIndex_++;
    // Functional results still come from the shared functional engine,
    // so fallback numerics are bit-identical to the accelerated path
    // (docs/FAULTS.md); only the *cost* is priced as host execution.
    const std::uint8_t *img = mem_->raw(plan.descAddr, plan.descBytes);
    accel::DescriptorProgram prog = accel::decode(img, plan.descBytes);
    stacks_[targetStack]->acquire(dram::Owner::Accelerator);
    accel::ExecStats es = layers_[targetStack]->execute(prog, *mem_);
    stacks_[targetStack]->release(dram::Owner::Accelerator);

    // The host executes after every conflicting in-flight command.
    double ready = hostSeconds_;
    for (const PendingAccess &pa : pending_)
        for (const AccessInterval &iv : plan.intervals)
            if (iv.conflictsWith(pa.interval))
                ready = std::max(ready, pa.finishSeconds);
    hostWaitUntil(ready);

    const Cost c = fallBackToHost(es);
    acct_.retryCount += retries;

    accel::ExecStats hostStats;
    hostStats.total = c;
    hostStats.compsExecuted = es.compsExecuted;
    hostStats.passes = es.passes;
    hostStats.bytesMoved = es.bytesMoved;
    hostStats.flops = es.flops;
    hostStats.retries = retries;
    hostStats.fellBack = true;

    auto state = std::make_shared<detail::EventState>();
    state->id = nextEventId_++;
    state->stack = targetStack;
    state->submitSeconds = hostSeconds_;
    state->startSeconds = hostSeconds_ - c.seconds;
    state->finishSeconds = hostSeconds_;
    state->epoch = epoch_;
    state->spanSeconds = c.seconds;
    state->intervals = plan.intervals;
    state->stats = hostStats;
    state->state = EventState::FellBack;
    state->onHost = true;
    state->waited = true;
    // Host execution dirties the written intervals in host caches.
    if (cfg_.residency.enabled)
        residency_.invalidateWrites(plan.intervals);
    updateMakespan();
    return Event(this, state);
}

void
MealibRuntime::noteHostWrite(const void *vptr, std::uint64_t bytes)
{
    if (!cfg_.residency.enabled || bytes == 0)
        return;
    Addr lo = 0;
    if (!tryPhysOf(vptr, &lo))
        return;
    std::lock_guard<std::mutex> lock(mu_);
    residency_.hostWrite(lo, lo + bytes);
}

void
MealibRuntime::noteFusion(std::uint64_t comps)
{
    if (comps <= 1)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    acct_.fusedPrograms++;
    acct_.handshakesElided += comps - 1;
    charge("reuse", Cost{}, "fused_program");
}

Cost
MealibRuntime::runOnHost(const host::KernelProfile &profile)
{
    std::lock_guard<std::mutex> lock(mu_);
    Cost c = host_.run(profile);
    charge("host", c, profile.name.empty() ? "host_kernel" : profile.name,
           energyOf("host", c.joules), profile.flops);
    hostWork(c.seconds);
    updateMakespan();
    return c;
}

void
MealibRuntime::resetAccounting()
{
    std::lock_guard<std::mutex> lock(mu_);
    acct_ = RuntimeAccounting{};
    hostSeconds_ = 0.0;
    pending_.clear();
    inflight_.clear();
    for (CommandQueue &q : queues_)
        q.reset();
    sched_->reset();
    nextEventId_ = 1;
    epoch_++;
    cmdIndex_ = 0;
    faults_.reset();
    health_.reset();
    journal_.reset();
    residency_.reset();
}

const accel::ExecStats &
Event::wait()
{
    fatalIf(!valid(), "Event::wait: invalid event");
    return rt_->eventWait(state_);
}

} // namespace mealib::runtime
