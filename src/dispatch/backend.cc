#include "dispatch/backend.hh"

#include <string>

#include "accel/descriptor.hh"
#include "runtime/event.hh"

namespace mealib::dispatch {

Status
RuntimeBackend::mapCall(const OpDesc &desc, accel::OpCall *out) const
{
    if (!desc.accelSupported || !accelerable(desc.kind))
        return Status::error(ErrorCode::InvalidArgument,
                             std::string("backend: ") +
                                 dispatch::name(desc.kind) +
                                 " has no accelerator mapping");
    if (!desc.backendMappable)
        return Status::error(ErrorCode::InvalidArgument,
                             std::string("backend: ") + desc.entry +
                                 " operand layout not COMP-mappable");

    // Fill the COMP's physical bases from the host operand pointers;
    // null pointers keep whatever base the lowering preset (TDL path).
    accel::OpCall call = desc.call;
    accel::OperandRef *slots[5] = {&call.in0, &call.in1, &call.in2,
                                   &call.in3, &call.out};
    for (std::size_t i = 0; i < desc.operands.size(); ++i) {
        const Operand &op = desc.operands[i];
        if (op.host == nullptr)
            continue;
        Addr paddr = 0;
        if (!rt_.tryPhysOf(op.host, &paddr))
            return Status::error(
                ErrorCode::InvalidArgument,
                std::string("backend: ") + desc.entry + " operand " +
                    std::to_string(i) +
                    " is not in accelerator memory");
        slots[i]->base = paddr;
    }
    *out = call;
    return Status();
}

Status
RuntimeBackend::flushPendingLocked()
{
    if (pending_.empty())
        return Status();
    accel::DescriptorProgram prog;
    for (const PendingCall &pc : pending_) {
        if (pc.loop.iterations() > 1)
            prog.addLoop(pc.loop, 2);
        prog.addComp(pc.call);
        prog.addPassEnd();
    }
    const std::uint64_t comps = pending_.size();
    pending_.clear();

    runtime::AccPlanHandle plan = rt_.accPlan(prog);
    runtime::Event ev = rt_.accSubmit(plan);
    ev.wait();
    Status st = completed(ev.state()) ? Status() : ev.status();
    rt_.accDestroy(plan);
    rt_.noteFusion(comps);
    return st;
}

void
RuntimeBackend::sync()
{
    // The flush outcome is dropped here by design: functional results
    // are final either way (the runtime executes eagerly and faults
    // shape cost, not values), and sync() callers have no per-call
    // Status to attach it to.
    std::lock_guard<std::mutex> lock(wmu_);
    flushPendingLocked();
}

Status
RuntimeBackend::execute(const OpDesc &desc)
{
    accel::OpCall call;
    if (Status st = mapCall(desc, &call); !st.ok())
        return st;

    // Buffer the call; flush when the home stack changes or the window
    // fills, so a window of 1 submits every call as its own program. A
    // buffered call reports success optimistically — its functional
    // result is guaranteed (computed eagerly at flush), only the
    // modeled fault outcome is folded into the flush that carries it.
    const unsigned home = rt_.stackOf(call.out.base);
    std::lock_guard<std::mutex> lock(wmu_);
    if (!pending_.empty() && home != home_) {
        if (Status st = flushPendingLocked(); !st.ok())
            return st;
    }
    home_ = home;
    pending_.push_back({call, desc.loop});
    if (pending_.size() >= window_)
        return flushPendingLocked();
    return Status();
}

} // namespace mealib::dispatch
