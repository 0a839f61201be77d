#ifndef AGORAEO_COMMON_SIMD_HAMMING_KERNELS_H_
#define AGORAEO_COMMON_SIMD_HAMMING_KERNELS_H_

/// The vectorized Hamming-distance kernel layer.
///
/// Every scan loop above this header — the linear scan's blocked batch
/// kernels and the hash/multi-index candidate verification — reduces
/// to XOR + popcount over packed 64-bit words.  This module centralises
/// that primitive behind a runtime CPU-dispatch table so one build
/// serves every ISA:
///
///   kernel    requires                           rows per vector (128-bit)
///   -------   --------------------------------   -------------------------
///   scalar    nothing (portable std::popcount)   1
///   avx2      AVX2 (vpshufb nibble-LUT popcnt)   2 per ymm
///   avx512    AVX-512 F+BW+VL+VPOPCNTDQ          4 per zmm
///   neon      AArch64 (vcnt)                     1 per q-register
///
/// The active kernel is chosen once, at first use: the strongest
/// compiled-in kernel the host CPU supports, overridable by the
/// AGORAEO_FORCE_KERNEL environment variable or ForceKernel() (the
/// parity tests' forced dispatch matrix).  Selection is process-global — kernels are pure
/// functions, so there is nothing per-index about the choice.
///
/// Layout contract of the batch kernel: rows are stored row-major with a
/// *padded* stride of PaddedStride(words_per_code) words (pad words are
/// zero) in a 64-byte aligned buffer, and the query is padded the same
/// way; padding XORs to zero, so padded distances equal unpadded ones.
/// This header is std-only so common/, index/ and netsvc/ can all
/// include it without cycles.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

namespace agoraeo::simd {

/// Row stride (in 64-bit words) the kernel layer stores a
/// `words_per_code`-word code with: the next power of two up to 4, then
/// the next multiple of 8 — so every row is a whole number of SIMD
/// lanes on every compiled ISA.  PaddedStride(0) == 0.
inline size_t PaddedStride(size_t words_per_code) {
  if (words_per_code == 0) return 0;
  if (words_per_code <= 1) return 1;
  if (words_per_code <= 2) return 2;
  if (words_per_code <= 4) return 4;
  return (words_per_code + 7) / 8 * 8;
}

/// dist[i] = Hamming(rows[i*stride .. +stride), query[0..stride)).
/// `rows` holds n rows of `stride` words; stride must come from
/// PaddedStride.  Rows and query need not be aligned (kernels use
/// unaligned loads), but the index layer aligns its buffers to 64 bytes
/// so the loads are effectively aligned.
using BatchDistanceFn = void (*)(const uint64_t* rows, size_t n,
                                 size_t stride, const uint64_t* query,
                                 uint32_t* dist);

/// Hamming distance of one unpadded word pair sequence.
using PairDistanceFn = uint64_t (*)(const uint64_t* a, const uint64_t* b,
                                    size_t n_words);

/// One dispatchable kernel implementation.
struct HammingKernel {
  const char* name;          ///< "scalar", "avx2", "avx512", "neon"
  bool (*supported)();       ///< host CPU can execute it
  BatchDistanceFn batch;
  PairDistanceFn pair;
};

/// Every kernel compiled into this binary, strongest first.  The scalar
/// kernel is always present (and always last), so the list is never
/// empty — with -DAGORAEO_DISABLE_SIMD=ON it is the only entry.
const std::vector<const HammingKernel*>& CompiledKernels();

/// The kernel the dispatch table currently resolves to.  First call
/// performs selection: AGORAEO_FORCE_KERNEL if set and usable (unknown
/// or unsupported names log a warning and fall through), else the
/// strongest supported compiled kernel.  Never null.
const HammingKernel* ActiveKernel();

/// Looks a compiled kernel up by name; nullptr when not compiled in.
const HammingKernel* KernelByName(const std::string& name);

/// Forces dispatch to the named kernel (config plumbing and the parity
/// tests).  Returns false — leaving the active kernel unchanged — when
/// the name is unknown, not compiled in, or unsupported by this CPU.
/// An empty name reverts to automatic selection (env var ignored: an
/// explicit revert beats a startup default) and returns true.
bool ForceKernel(const std::string& name);

/// Whether the current selection came from ForceKernel or the
/// environment override rather than automatic CPU detection.
bool KernelForced();

/// Per-kernel dispatch counters: how many scan passes each kernel
/// served since process start.  Index-aligned with CompiledKernels().
uint64_t DispatchCount(size_t kernel_index);

/// Records one scan pass served by `kernel` (relaxed; hot-path cheap —
/// callers count per scan pass, not per block).
void CountDispatch(const HammingKernel* kernel);

/// Convenience: Hamming distance of two unpadded word sequences through
/// the active kernel — the single-pair truth BinaryCode::HammingDistance
/// and the probe-based indexes share with the blocked scans.
inline uint64_t PairDistance(const uint64_t* a, const uint64_t* b,
                             size_t n_words) {
  return ActiveKernel()->pair(a, b, n_words);
}

/// 64-byte-aligned allocator for the flat row buffers the batch kernels
/// stream (one cache line / one zmm register per 8 words).
template <typename T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, size_t) noexcept { ::operator delete(p, kAlign); }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const {
    return true;
  }
};

/// The flat, padded, 64-byte-aligned row storage of the kernel layer.
using AlignedWordBuffer = std::vector<uint64_t, AlignedAllocator<uint64_t>>;

}  // namespace agoraeo::simd

#endif  // AGORAEO_COMMON_SIMD_HAMMING_KERNELS_H_
