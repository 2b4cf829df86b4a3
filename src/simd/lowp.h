// Reduced-precision value helpers: the serving precision tiers and the
// scalar bf16 conversion primitives the low-precision GEMM kernel
// (simd/gemm_lowp.h) is built on.
//
// Tiers (DESIGN.md §4g):
//   * fp32 — the default; every kernel in the library.
//   * bf16 — weights stored as the upper 16 bits of binary32, widened back
//     to fp32 in the GEMM microkernel; accumulation stays fp32.
//
// bf16 is inference-only: it applies to GEMM *weight* operands registered
// by a serving session (tensor/lowp_cache.h) and never changes training
// numerics.
//
// bf16 rounding: `Bf16FromF32` rounds to nearest-even, which is unbiased,
// so rounding errors cancel across a dot product instead of compounding
// across stacked layers. NaNs are quietened so a rounded NaN cannot
// become Inf.

#ifndef STWA_SIMD_LOWP_H_
#define STWA_SIMD_LOWP_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace stwa {
namespace simd {

/// Serving GEMM precision tier.
enum class Precision { kFp32, kBf16 };

/// Canonical lowercase tier name ("fp32" / "bf16").
const char* PrecisionName(Precision p);

/// Parses a tier name (case-sensitive, the two canonical names).
/// Throws stwa::Error on anything else, listing the accepted values; the
/// removed "int8" tier gets an error that names its replacement.
Precision ParsePrecision(const std::string& name);

// --- bf16 ----------------------------------------------------------------

/// binary32 -> bf16 (upper 16 bits), round-to-nearest-even.
inline uint16_t Bf16FromF32(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  if ((bits & 0x7FFFFFFFu) > 0x7F800000u) {
    // NaN: quieten and keep the payload's top bits so the result is still
    // a NaN after dropping the low half.
    return static_cast<uint16_t>((bits >> 16) | 0x0040u);
  }
  // Round to nearest-even on bit 16: add 0x7FFF + lsb-of-result.
  const uint32_t lsb = (bits >> 16) & 1u;
  return static_cast<uint16_t>((bits + 0x7FFFu + lsb) >> 16);
}

/// bf16 -> binary32 (exact: shift back into the upper half).
inline float F32FromBf16(uint16_t x) {
  const uint32_t bits = static_cast<uint32_t>(x) << 16;
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

}  // namespace simd
}  // namespace stwa

#endif  // STWA_SIMD_LOWP_H_
