/**
 * @file
 * Minimal over-aligned allocator for the simulator's tag planes.
 *
 * Keeping the planes cache-line aligned means a power-of-two set of
 * up to eight ways never straddles a line, and makes the layout
 * NUMA-page-clean for the first-touch placement the sharded
 * replay workers rely on.
 */

#ifndef PIM_COMMON_ALIGNED_H
#define PIM_COMMON_ALIGNED_H

#include <cstddef>
#include <new>
#include <vector>

namespace pim {

/** std::allocator with a fixed minimum alignment (a power of two). */
template <typename T, std::size_t Alignment = 64>
struct AlignedAllocator
{
    using value_type = T;

    static_assert((Alignment & (Alignment - 1)) == 0,
                  "alignment must be a power of two");
    static_assert(Alignment >= alignof(T),
                  "alignment must not weaken the type's own");

    AlignedAllocator() = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Alignment> &) noexcept
    {
    }

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Alignment>;
    };

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t{Alignment}));
    }

    void
    deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t{Alignment});
    }

    friend bool
    operator==(const AlignedAllocator &, const AlignedAllocator &)
    {
        return true;
    }
};

/** A std::vector whose storage is at least cache-line aligned. */
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, 64>>;

} // namespace pim

#endif // PIM_COMMON_ALIGNED_H
