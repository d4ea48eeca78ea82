/**
 * @file
 * RingQueue: the one FIFO type of the simulator's queues.
 *
 * A power-of-two ring buffer of T. push_back() constructs in place
 * at the tail, doubling the ring when it is full; pop_front()
 * destroys the head element, so a slot never keeps a reference
 * (a PacketPtr, a callback) alive after its element left the queue.
 * Unlike a deque it allocates nothing until the first push and
 * then one block per growth, and a queue that is reserved to its
 * bound never allocates again.
 *
 * Indexing, front(), back() and iteration run from the head in FIFO
 * order. Audit builds (sim/invariant.hh) check every access to the
 * head and tail against the current size.
 */

#ifndef PCIESIM_SIM_RING_QUEUE_HH
#define PCIESIM_SIM_RING_QUEUE_HH

#include <bit>
#include <cstddef>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/invariant.hh"

namespace pciesim
{

/**
 * FIFO of T in a power-of-two ring that grows when full; pop_front()
 * destroys the element it drops.
 */
template <typename T>
class RingQueue
{
    template <bool Const>
    class Iter
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = std::conditional_t<Const, const T *, T *>;
        using reference = std::conditional_t<Const, const T &, T &>;
        using Ring = std::conditional_t<Const, const RingQueue,
                                        RingQueue>;

        Iter() = default;
        Iter(Ring *ring, std::size_t i) : ring_(ring), i_(i) {}

        reference operator*() const { return (*ring_)[i_]; }
        pointer operator->() const { return &(*ring_)[i_]; }

        Iter &
        operator++()
        {
            ++i_;
            return *this;
        }

        Iter
        operator++(int)
        {
            Iter old = *this;
            ++i_;
            return old;
        }

        bool
        operator==(const Iter &o) const
        {
            return i_ == o.i_ && ring_ == o.ring_;
        }

      private:
        Ring *ring_ = nullptr;
        std::size_t i_ = 0;
    };

  public:
    using value_type = T;
    using size_type = std::size_t;
    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    RingQueue() = default;

    RingQueue(const RingQueue &o)
    {
        reserve(o.size_);
        for (const T &v : o)
            emplace_back(v);
    }

    RingQueue(RingQueue &&o) noexcept
        : buf_(std::exchange(o.buf_, nullptr)),
          mask_(std::exchange(o.mask_, 0)),
          head_(std::exchange(o.head_, 0)),
          size_(std::exchange(o.size_, 0))
    {}

    RingQueue &
    operator=(RingQueue o) noexcept
    {
        swap(o);
        return *this;
    }

    ~RingQueue()
    {
        clear();
        release();
    }

    void
    swap(RingQueue &o) noexcept
    {
        std::swap(buf_, o.buf_);
        std::swap(mask_, o.mask_);
        std::swap(head_, o.head_);
        std::swap(size_, o.size_);
    }

    bool empty() const { return size_ == 0; }
    size_type size() const { return size_; }
    size_type capacity() const { return buf_ == nullptr ? 0 : mask_ + 1; }

    /** Make room for @p n elements; the ring never shrinks. */
    void
    reserve(size_type n)
    {
        if (n > capacity())
            regrow(std::bit_ceil(n));
    }

    /** @{ FIFO order: element 0 is the head. */
    T &
    operator[](size_type i)
    {
        PCIESIM_AUDIT(i < size_, "ring index ", i, " of ", size_);
        return buf_[(head_ + i) & mask_];
    }

    const T &
    operator[](size_type i) const
    {
        PCIESIM_AUDIT(i < size_, "ring index ", i, " of ", size_);
        return buf_[(head_ + i) & mask_];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, size_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }
    /** @} */

    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (size_ == capacity()) [[unlikely]] {
            // The arguments may refer into this ring; build the
            // element before the old slots move.
            return growAndPlace(T(std::forward<Args>(args)...));
        }
        return place(std::forward<Args>(args)...);
    }

    void push_back(const T &v) { emplace_back(v); }
    void push_back(T &&v) { emplace_back(std::move(v)); }

    /** Destroy the head element; its slot holds nothing after. */
    void
    pop_front()
    {
        PCIESIM_AUDIT(size_ > 0, "pop_front on an empty ring");
        std::destroy_at(buf_ + head_);
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    void
    clear()
    {
        while (size_ > 0)
            pop_front();
        head_ = 0;
    }

  private:
    template <typename... Args>
    T &
    place(Args &&...args)
    {
        T *slot = buf_ + ((head_ + size_) & mask_);
        std::construct_at(slot, std::forward<Args>(args)...);
        ++size_;
        return *slot;
    }

    /** Full ring: double it, then append @p v. Kept out of line so
     *  the append that fits stays small enough to inline. */
    [[gnu::noinline]] T &
    growAndPlace(T v)
    {
        regrow(capacity() == 0 ? 1 : 2 * capacity());
        return place(std::move(v));
    }

    /** Move the elements, in order, into a ring of @p cap slots. */
    void
    regrow(size_type cap)
    {
        T *nb = std::allocator<T>().allocate(cap);
        for (size_type i = 0; i < size_; ++i) {
            T *old = buf_ + ((head_ + i) & mask_);
            std::construct_at(nb + i, std::move(*old));
            std::destroy_at(old);
        }
        release();
        buf_ = nb;
        mask_ = cap - 1;
        head_ = 0;
    }

    void
    release()
    {
        if (buf_ != nullptr)
            std::allocator<T>().deallocate(buf_, mask_ + 1);
        buf_ = nullptr;
    }

    T *buf_ = nullptr;
    size_type mask_ = 0;
    size_type head_ = 0;
    size_type size_ = 0;
};

} // namespace pciesim

#endif // PCIESIM_SIM_RING_QUEUE_HH
