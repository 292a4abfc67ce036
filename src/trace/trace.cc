#include "trace/trace.hh"

#include "sim/config.hh"
#include "sim/log.hh"

namespace fugu::trace
{

void
bindConfig(sim::Binder &b, Options &c)
{
    b.item("enabled", c.enabled,
           "record message-lifecycle trace events");
    b.item("max_events", c.maxEvents,
           "trace ring capacity (0 = unbounded)", "events");
}

const char *
toString(Type t)
{
    switch (t) {
      case Type::Inject: return "inject";
      case Type::NetAccept: return "net_accept";
      case Type::Divert: return "divert";
      case Type::DirectExtract: return "direct_extract";
      case Type::BufExtract: return "buf_extract";
      case Type::Dispatch: return "dispatch";
      case Type::AtomTimeout: return "atom_timeout";
      case Type::ModeEnter: return "mode_enter";
      case Type::ModeExit: return "mode_exit";
      case Type::QuantumSwitch: return "quantum_switch";
      case Type::KernelMsg: return "kernel_msg";
      case Type::PageFault: return "page_fault";
      case Type::Overflow: return "overflow";
      case Type::VbufPage: return "vbuf_page";
      case Type::IrqDispatch: return "irq";
    }
    return "?";
}

const char *
toString(DivertReason r)
{
    switch (r) {
      case DivertReason::None: return "none";
      case DivertReason::GidMismatch: return "gid_mismatch";
      case DivertReason::AtomTimeout: return "atom_timeout";
      case DivertReason::PageFault: return "page_fault";
      case DivertReason::QuantumCarry: return "quantum_carry";
      case DivertReason::Config: return "config";
      case DivertReason::Forced: return "forced";
    }
    return "?";
}

TraceEvent &
TraceBuffer::slot(std::uint64_t n)
{
    const std::uint64_t idx = cap_ ? n % cap_ : n;
    const std::size_t chunk = static_cast<std::size_t>(idx / kChunk);
    while (chunks_.size() <= chunk)
        chunks_.push_back(std::make_unique<TraceEvent[]>(kChunk));
    return chunks_[chunk][static_cast<std::size_t>(idx % kChunk)];
}

std::vector<TraceEvent>
TraceBuffer::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(size());
    for (std::size_t i = 0; i < size(); ++i)
        out.push_back((*this)[i]);
    return out;
}

} // namespace fugu::trace
