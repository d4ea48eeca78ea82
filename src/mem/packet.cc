#include "packet.hh"

#include <sstream>

namespace pciesim
{

std::atomic<std::uint64_t> Packet::liveCount_{0};
std::uint64_t Packet::nextId_ = 0;

PacketPool &
Packet::pool()
{
    // pciesim-analyze: ignore[shared-state]: pool locks internally
    static PacketPool pool(sizeof(Packet));
    return pool;
}

void *
Packet::operator new(std::size_t size)
{
    // Packet is final, so every allocation is exactly one block.
    panicIf(size != pool().blockSize(), "packet allocation size mismatch");
    return pool().allocate();
}

void
Packet::operator delete(void *p) noexcept
{
    if (p != nullptr)
        pool().deallocate(p);
}

MemCmd
responseCommand(MemCmd c)
{
    switch (c) {
      case MemCmd::ReadReq:
        return MemCmd::ReadResp;
      case MemCmd::WriteReq:
        return MemCmd::WriteResp;
      case MemCmd::ConfigReadReq:
        return MemCmd::ConfigReadResp;
      case MemCmd::ConfigWriteReq:
        return MemCmd::ConfigWriteResp;
      default:
        panic("command has no response form");
    }
}

Packet::Packet(MemCmd cmd, Addr addr, unsigned size, RequestorId requestor)
    : cmd_(cmd), addr_(addr), size_(size), requestorId_(requestor),
      id_(par::engineActive ? par::domainPacketId() : nextId_++)
{
    addLive(1);
}

Packet::~Packet()
{
    addLive(-1);
}

void
Packet::addLive(std::int64_t delta)
{
    // Only a fanned-out window can count from two threads at once;
    // elsewhere a plain load and store skip the locked instruction.
    const auto d = static_cast<std::uint64_t>(delta);
    if (par::concurrent) [[unlikely]] {
        liveCount_.fetch_add(d, std::memory_order_relaxed);
    } else {
        liveCount_.store(liveCount_.load(std::memory_order_relaxed) + d,
                         std::memory_order_relaxed);
    }
}

PacketPtr
Packet::makeRequest(MemCmd cmd, Addr addr, unsigned size,
                    RequestorId requestor)
{
    panicIf(!cmdIsRequest(cmd), "makeRequest with a response command");
    return PacketPtr(new Packet(cmd, addr, size, requestor));
}

void
Packet::makeResponse()
{
    panicIf(!needsResponse(), "makeResponse on a non-request packet");
    cmd_ = responseCommand(cmd_);
}

std::string
Packet::toString() const
{
    static const char *names[] = {
        "ReadReq", "ReadResp", "WriteReq", "WriteResp",
        "ConfigReadReq", "ConfigReadResp", "ConfigWriteReq",
        "ConfigWriteResp", "MessageReq", "PostedWriteReq",
    };
    std::ostringstream os;
    os << names[static_cast<unsigned>(cmd_)] << " [0x" << std::hex
       << addr_ << std::dec << " +" << size_ << "] id=" << id_
       << " bus=" << pciBusNumber_;
    return os.str();
}

} // namespace pciesim
