/**
 * @file
 * Functional backing store for the simulated physical address space.
 *
 * The timing/energy side of the simulation works on addresses alone; the
 * functional side (accelerator executors, the runtime's shared-memory
 * manager) needs actual bytes. PhysMem is that byte arena: a bounds-
 * checked, zero-initialized region representing the beginning of the
 * stack's physical space. The modeled capacity may exceed the backing
 * size; only functionally-used addresses must fit the backing.
 *
 * The arena comes from calloc, so its pages are zeroed lazily: at the
 * default 256 MiB the allocator maps fresh anonymous pages, which read
 * as zero and cost nothing until a run first touches them.
 */

#ifndef MEALIB_DRAM_PHYSMEM_HH
#define MEALIB_DRAM_PHYSMEM_HH

#include <cstdint>
#include <cstdlib>
#include <memory>

#include "common/logging.hh"
#include "common/units.hh"

namespace mealib::dram {

/** Byte-addressable functional memory. */
class PhysMem
{
  public:
    /** @param backingBytes bytes of functional storage to allocate. */
    explicit PhysMem(std::uint64_t backingBytes) : size_(backingBytes)
    {
        fatalIf(backingBytes == 0, "physmem: zero backing size");
        mem_.reset(static_cast<std::uint8_t *>(
            std::calloc(static_cast<std::size_t>(backingBytes), 1)));
        fatalIf(mem_ == nullptr, "physmem: cannot allocate ",
                backingBytes, " bytes");
    }

    std::uint64_t size() const { return size_; }

    /** Raw byte pointer to [addr, addr+bytes); fatal() if out of range. */
    std::uint8_t *
    raw(Addr addr, std::uint64_t bytes)
    {
        check(addr, bytes);
        return mem_.get() + addr;
    }

    const std::uint8_t *
    raw(Addr addr, std::uint64_t bytes) const
    {
        check(addr, bytes);
        return mem_.get() + addr;
    }

    /** Typed pointer to @p count elements of T at @p addr. */
    template <typename T>
    T *
    ptr(Addr addr, std::uint64_t count)
    {
        fatalIf(addr % alignof(T) != 0, "physmem: misaligned access at ",
                addr);
        return reinterpret_cast<T *>(raw(addr, count * sizeof(T)));
    }

    template <typename T>
    const T *
    ptr(Addr addr, std::uint64_t count) const
    {
        fatalIf(addr % alignof(T) != 0, "physmem: misaligned access at ",
                addr);
        return reinterpret_cast<const T *>(raw(addr, count * sizeof(T)));
    }

  private:
    void
    check(Addr addr, std::uint64_t bytes) const
    {
        fatalIf(addr + bytes > size_ || addr + bytes < addr,
                "physmem: access [", addr, ", ", addr + bytes,
                ") outside backing of ", size_, " bytes");
    }

    struct Free
    {
        void operator()(std::uint8_t *p) const { std::free(p); }
    };

    std::uint64_t size_;
    std::unique_ptr<std::uint8_t[], Free> mem_;
};

} // namespace mealib::dram

#endif // MEALIB_DRAM_PHYSMEM_HH
