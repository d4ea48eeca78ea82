/**
 * @file
 * The memory packet: the unit of communication in the memory and I/O
 * systems, used directly as the PCI-Express TLP (paper Sec. V-C:
 * "we use gem5 memory packets as our PCI-Express TLPs").
 *
 * One Packet object represents one transaction for its whole life:
 * the completer turns the request into a response in place with
 * makeResponse() and sends the same object back (gem5 convention).
 *
 * Packets are reference counted (PacketPtr) because the PCI-Express
 * link layer keeps a handle in its replay buffer until the TLP is
 * acknowledged, which can outlive the transaction's completion.
 *
 * Packet storage is recycled through a freelist PacketPool: a dd
 * run creates and destroys millions of TLP objects, and the pool
 * turns each new/delete pair after warm-up into two pointer moves.
 * The live-count leak check is unaffected (the constructor and
 * destructor still run for every packet).
 */

#ifndef PCIESIM_MEM_PACKET_HH
#define PCIESIM_MEM_PACKET_HH

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "mem/addr_range.hh"
#include "sim/invariant.hh"
#include "sim/logging.hh"
#include "sim/parallel_mode.hh"
#include "sim/ticks.hh"

/*
 * AddressSanitizer awareness. A freelist hides use-after-free from
 * ASan: pooled operator delete keeps the storage alive, so a stale
 * PacketPtr reads a recycled object instead of faulting. Under ASan
 * the pool therefore poisons every block parked on the freelist and
 * unpoisons it on allocation, which restores byte-exact
 * use-after-free ("use-after-poison") reports while keeping the
 * recycling fast path.
 *
 * GCC advertises ASan with __SANITIZE_ADDRESS__, Clang with
 * __has_feature(address_sanitizer). If the poisoning interface
 * header is unavailable the pool falls back to pass-through
 * ::operator new/delete so ASan's own quarantine catches the bug
 * (recycling is lost; PacketPool::passThrough tells tests).
 */
#if defined(__SANITIZE_ADDRESS__)
#define PCIESIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PCIESIM_ASAN 1
#endif
#endif
#ifndef PCIESIM_ASAN
#define PCIESIM_ASAN 0
#endif

#if PCIESIM_ASAN && __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#define PCIESIM_POOL_POISONING 1
#else
#define PCIESIM_POOL_POISONING 0
#endif

#define PCIESIM_POOL_PASSTHROUGH (PCIESIM_ASAN && !PCIESIM_POOL_POISONING)

namespace pciesim
{

/** Identifies the component that originated a request. */
using RequestorId = std::uint16_t;

constexpr RequestorId invalidRequestorId = 0xffff;

/** Memory command carried by a packet. */
enum class MemCmd : std::uint8_t
{
    ReadReq,
    ReadResp,
    WriteReq,
    WriteResp,
    /** Configuration space accesses (ECAM window). */
    ConfigReadReq,
    ConfigReadResp,
    ConfigWriteReq,
    ConfigWriteResp,
    /** Message request (posted); used for MSI writes. */
    MessageReq,
    /** Posted memory write: carries data, needs no response
     *  (real PCI-Express write semantics, paper Sec. VI-B). */
    PostedWriteReq,
};

/** Command classification helpers. */
constexpr bool
cmdIsRead(MemCmd c)
{
    return c == MemCmd::ReadReq || c == MemCmd::ReadResp ||
           c == MemCmd::ConfigReadReq || c == MemCmd::ConfigReadResp;
}

constexpr bool
cmdIsWrite(MemCmd c)
{
    return c == MemCmd::WriteReq || c == MemCmd::WriteResp ||
           c == MemCmd::ConfigWriteReq || c == MemCmd::ConfigWriteResp ||
           c == MemCmd::MessageReq || c == MemCmd::PostedWriteReq;
}

constexpr bool
cmdIsRequest(MemCmd c)
{
    return c == MemCmd::ReadReq || c == MemCmd::WriteReq ||
           c == MemCmd::ConfigReadReq || c == MemCmd::ConfigWriteReq ||
           c == MemCmd::MessageReq || c == MemCmd::PostedWriteReq;
}

constexpr bool
cmdIsResponse(MemCmd c)
{
    return !cmdIsRequest(c);
}

/** Response command corresponding to a request command. */
MemCmd responseCommand(MemCmd c);

/**
 * A freelist of fixed-size storage blocks.
 *
 * Freed blocks are threaded into an intrusive singly-linked list
 * (the link lives in the dead block's own storage), so a hot
 * allocate/deallocate pair costs two pointer moves instead of a
 * trip through the global allocator. Packet routes its operator
 * new/delete through a pool, and PciePkt reuses the same class for
 * its own storage (see pcie_pkt.hh).
 *
 * Under AddressSanitizer freelist blocks are poisoned while parked
 * (see the PCIESIM_POOL_POISONING block above), so a stale pointer
 * into recycled storage still produces a precise ASan report. In
 * audit builds (sim/invariant.hh) the pool additionally tracks the
 * outstanding-block set to catch double frees and foreign pointers.
 *
 * The pool serializes on a mutex only while a fanned-out engine
 * window runs (par::concurrent), since TLPs from any domain can be
 * freed by any other after crossing a link. Single-queue runs and
 * the engine's narrow windows, which one thread runs while every
 * other worker is parked, take no lock; the flag-gated lock keeps
 * that fast path at one predictable branch. Audit builds check that
 * an unlocked call inside an engine run comes from the barrier
 * holder's thread.
 */
class PacketPool
{
  public:
    /**
     * True when ASan is active without the poisoning interface:
     * the pool degrades to plain ::operator new/delete (no
     * recycling), so tests must not assert pointer reuse.
     */
    static constexpr bool passThrough = PCIESIM_POOL_PASSTHROUGH;

    /** True when freelist blocks are ASan-poisoned while parked. */
    static constexpr bool poisoning = PCIESIM_POOL_POISONING;

    /** @param block_size Size of each block; at least a pointer. */
    explicit PacketPool(std::size_t block_size)
        : blockSize_(block_size < sizeof(void *) ? sizeof(void *)
                                                 : block_size)
    {}

    ~PacketPool() { shrink(); }

    PacketPool(const PacketPool &) = delete;
    PacketPool &operator=(const PacketPool &) = delete;

    /** Grab a block: freelist head, or fresh storage when dry. */
    void *
    allocate()
    {
        std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
        if (par::concurrent) [[unlikely]]
            lock.lock();
        else
            par::auditExclusive("pool allocate");
        ++allocs_;
        void *p = nullptr;
#if PCIESIM_POOL_PASSTHROUGH
        p = ::operator new(blockSize_);
#else
        if (freeList_ != nullptr) {
            ++recycled_;
            p = freeList_;
            // Unpoison before reading the intrusive link stored in
            // the dead block's own bytes.
            unpoisonBlock(p);
            freeList_ = *static_cast<void **>(p);
            --freeBlocks_;
        } else {
            p = ::operator new(blockSize_);
        }
#endif
        PCIESIM_AUDIT_ONLY(auditLive_.insert(p);)
        return p;
    }

    /** Return a block to the freelist. */
    void
    deallocate(void *p) noexcept
    {
        std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
        if (par::concurrent) [[unlikely]]
            lock.lock();
        else
            par::auditExclusive("pool deallocate");
        PCIESIM_AUDIT(auditLive_.erase(p) == 1,
                      "pool deallocate of ", p,
                      ": double free or foreign pointer");
#if PCIESIM_POOL_PASSTHROUGH
        ::operator delete(p);
#else
        *static_cast<void **>(p) = freeList_;
        freeList_ = p;
        ++freeBlocks_;
        // Park poisoned: any touch before reallocation is a
        // use-after-poison report with this exact address.
        poisonBlock(p);
#endif
    }

    /** Release every pooled free block back to the system. */
    void
    shrink()
    {
        while (freeList_ != nullptr) {
            void *p = freeList_;
            unpoisonBlock(p);
            freeList_ = *static_cast<void **>(p);
            ::operator delete(p);
        }
        freeBlocks_ = 0;
    }

    /** @{ Pool statistics. */
    std::size_t blockSize() const { return blockSize_; }
    std::size_t freeBlocks() const { return freeBlocks_; }
    std::uint64_t totalAllocs() const { return allocs_; }
    std::uint64_t recycledAllocs() const { return recycled_; }
    /** @} */

  private:
    void
    poisonBlock(const void *p) const
    {
#if PCIESIM_POOL_POISONING
        ASAN_POISON_MEMORY_REGION(p, blockSize_);
#else
        (void)p;
#endif
    }

    void
    unpoisonBlock(const void *p) const
    {
#if PCIESIM_POOL_POISONING
        ASAN_UNPOISON_MEMORY_REGION(p, blockSize_);
#else
        (void)p;
#endif
    }

    std::size_t blockSize_;
    void *freeList_ = nullptr;
    std::size_t freeBlocks_ = 0;
    std::uint64_t allocs_ = 0;
    std::uint64_t recycled_ = 0;
    /** Taken only while the parallel engine is active. */
    std::mutex mutex_;
    /** Audit builds: every block handed out and not yet returned. */
    PCIESIM_AUDIT_ONLY(std::unordered_set<void *> auditLive_;)
};

class Packet;

/**
 * Intrusive reference-counted handle to a Packet. The count is
 * manipulated through std::atomic_ref only while a fanned-out
 * engine window runs (par::concurrent), since a TLP's replay-buffer
 * handle and its delivered handle can sit on opposite sides of a
 * link (and so in different domains, on different workers); every
 * other increment or decrement, narrow engine windows included, is
 * a plain one.
 */
class PacketPtr
{
  public:
    PacketPtr() = default;
    PacketPtr(std::nullptr_t) {}
    explicit PacketPtr(Packet *pkt);
    PacketPtr(const PacketPtr &other);
    PacketPtr(PacketPtr &&other) noexcept;
    PacketPtr &operator=(const PacketPtr &other);
    PacketPtr &operator=(PacketPtr &&other) noexcept;
    ~PacketPtr();

    Packet *get() const { return pkt_; }
    Packet *operator->() const { return pkt_; }
    Packet &operator*() const { return *pkt_; }
    explicit operator bool() const { return pkt_ != nullptr; }

    bool operator==(const PacketPtr &o) const { return pkt_ == o.pkt_; }

    void reset();

  private:
    Packet *pkt_ = nullptr;
};

/**
 * A memory transaction packet.
 */
class Packet final
{
  public:
    /**
     * Create a request packet.
     *
     * @param cmd Request command.
     * @param addr Target physical address.
     * @param size Transaction size in bytes.
     * @param requestor Originating component id (for tracing).
     */
    static PacketPtr
    makeRequest(MemCmd cmd, Addr addr, unsigned size,
                RequestorId requestor = invalidRequestorId);

    ~Packet();

    Packet(const Packet &) = delete;
    Packet &operator=(const Packet &) = delete;

    MemCmd cmd() const { return cmd_; }
    Addr addr() const { return addr_; }
    unsigned size() const { return size_; }
    RequestorId requestorId() const { return requestorId_; }
    std::uint64_t id() const { return id_; }

    bool isRead() const { return cmdIsRead(cmd_); }
    bool isWrite() const { return cmdIsWrite(cmd_); }
    bool isRequest() const { return cmdIsRequest(cmd_); }
    bool isResponse() const { return cmdIsResponse(cmd_); }
    bool isConfig() const
    {
        return cmd_ == MemCmd::ConfigReadReq ||
               cmd_ == MemCmd::ConfigReadResp ||
               cmd_ == MemCmd::ConfigWriteReq ||
               cmd_ == MemCmd::ConfigWriteResp;
    }

    /** Posted requests need no response (paper Sec. II-B). */
    bool needsResponse() const
    {
        return isRequest() && cmd_ != MemCmd::MessageReq &&
               cmd_ != MemCmd::PostedWriteReq;
    }

    /**
     * PCI bus number used to route responses back through the
     * PCI-Express fabric. -1 until a root complex or switch slave
     * port tags the request (paper Sec. V-A, "Routing of Requests
     * and Responses").
     */
    int pciBusNumber() const { return pciBusNumber_; }
    void setPciBusNumber(int bus) { pciBusNumber_ = bus; }

    /** Turn this request into the corresponding response in place. */
    void makeResponse();

    /**
     * Size of the TLP payload this packet carries on a PCI-Express
     * link: data-bearing packets (write requests, read responses)
     * carry size() bytes, others carry none (paper Sec. V-C).
     */
    unsigned
    tlpPayloadSize() const
    {
        bool has_data = (isWrite() && isRequest()) ||
                        (isRead() && isResponse());
        return has_data ? size_ : 0;
    }

    /** @{ Payload accessors (lazily allocated). */
    bool hasData() const { return !data_.empty(); }

    /** Raw payload bytes (may be shorter than size()). */
    const std::uint8_t *data() const { return data_.data(); }
    std::size_t dataSize() const { return data_.size(); }

    void
    setData(const std::uint8_t *data, unsigned len)
    {
        panicIf(len > size_, "packet data larger than packet");
        data_.assign(data, data + len);
    }

    template <typename T>
    void
    set(T v)
    {
        panicIf(sizeof(T) > size_, "packet value larger than packet");
        data_.resize(sizeof(T));
        std::memcpy(data_.data(), &v, sizeof(T));
    }

    template <typename T>
    T
    get() const
    {
        T v{};
        panicIf(data_.size() < sizeof(T),
                "reading ", sizeof(T), " bytes from packet with ",
                data_.size());
        std::memcpy(&v, data_.data(), sizeof(T));
        return v;
    }
    /** @} */

    Tick creationTick() const { return creationTick_; }
    void setCreationTick(Tick t) { creationTick_ = t; }

    /** Number of Packet objects currently alive (leak checking). */
    static std::uint64_t
    liveCount()
    {
        return liveCount_.load(std::memory_order_relaxed);
    }

    /**
     * Restart debug packet numbering from 0. Topology constructors
     * call this so two identically-configured systems built in one
     * process produce bit-identical traces (ids appear in
     * toString() and trace labels, never in simulation logic).
     */
    static void resetIds() { nextId_ = 0; }

    /** The freelist recycling Packet storage. */
    static PacketPool &pool();

    /** @{ Pooled storage; see PacketPool. */
    static void *operator new(std::size_t size);
    static void operator delete(void *p) noexcept;
    /** @} */

    std::string toString() const;

  private:
    friend class PacketPtr;

    Packet(MemCmd cmd, Addr addr, unsigned size, RequestorId requestor);

    void
    incRef()
    {
        if (par::concurrent) [[unlikely]] {
            std::atomic_ref<int>(refCount_).fetch_add(
                1, std::memory_order_relaxed);
        } else {
            par::auditExclusive("refcount increment");
            ++refCount_;
        }
    }

    /** Drop one reference; true when this was the last one. */
    bool
    decRef()
    {
        if (par::concurrent) [[unlikely]] {
            return std::atomic_ref<int>(refCount_).fetch_sub(
                       1, std::memory_order_acq_rel) == 1;
        }
        par::auditExclusive("refcount decrement");
        return --refCount_ == 0;
    }

    /** Adjust liveCount_; atomic only while par::concurrent. */
    static void addLive(std::int64_t delta);

    MemCmd cmd_;
    Addr addr_;
    unsigned size_;
    RequestorId requestorId_;
    int pciBusNumber_ = -1;
    std::uint64_t id_;
    Tick creationTick_ = 0;
    std::vector<std::uint8_t> data_;
    /** Plain int, promoted to std::atomic_ref by incRef/decRef
     *  while a fanned-out engine window runs. */
    int refCount_ = 0;

    static std::atomic<std::uint64_t> liveCount_;
    static std::uint64_t nextId_;
};

inline
PacketPtr::PacketPtr(Packet *pkt)
    : pkt_(pkt)
{
    if (pkt_)
        pkt_->incRef();
}

inline
PacketPtr::PacketPtr(const PacketPtr &other)
    : pkt_(other.pkt_)
{
    if (pkt_)
        pkt_->incRef();
}

inline
PacketPtr::PacketPtr(PacketPtr &&other) noexcept
    : pkt_(other.pkt_)
{
    other.pkt_ = nullptr;
}

inline PacketPtr &
PacketPtr::operator=(const PacketPtr &other)
{
    if (this == &other)
        return *this;
    reset();
    pkt_ = other.pkt_;
    if (pkt_)
        pkt_->incRef();
    return *this;
}

inline PacketPtr &
PacketPtr::operator=(PacketPtr &&other) noexcept
{
    if (this == &other)
        return *this;
    reset();
    pkt_ = other.pkt_;
    other.pkt_ = nullptr;
    return *this;
}

inline void
PacketPtr::reset()
{
    if (pkt_ && pkt_->decRef())
        delete pkt_;
    pkt_ = nullptr;
}

inline
PacketPtr::~PacketPtr()
{
    reset();
}

} // namespace pciesim

#endif // PCIESIM_MEM_PACKET_HH
