#ifndef SERD_COMMON_CPU_H_
#define SERD_COMMON_CPU_H_

// The one ISA probe of the runtime-dispatched kernels (DESIGN.md §5d).
// Each module keeps its own AVX2 target region, with internal linkage and
// no standard-library templates inside, and picks its clones by the
// features below.

/// 1 on x86-64 GCC/Clang builds that do not already target AVX2 and FMA;
/// a build that does (SERD_NATIVE on such a host) runs the portable bodies.
#if defined(__x86_64__) && defined(__GNUC__) && \
    !(defined(__AVX2__) && defined(__FMA__))
#define SERD_X86_DISPATCH 1
#else
#define SERD_X86_DISPATCH 0
#endif

#if SERD_X86_DISPATCH
namespace serd::cpu {

struct X86Features {
  bool avx2 = false;
  bool fma = false;
  bool popcnt = false;
  bool pclmul = false;
};

/// The host's features, probed once per process, so every dispatch
/// decision is a per-process constant.
inline const X86Features& X86() {
  static const X86Features features = [] {
    X86Features f;
#define SERD_CPU_PROBE(feature) f.feature = __builtin_cpu_supports(#feature)
    SERD_CPU_PROBE(avx2);
    SERD_CPU_PROBE(fma);
    SERD_CPU_PROBE(popcnt);
    SERD_CPU_PROBE(pclmul);
#undef SERD_CPU_PROBE
    return f;
  }();
  return features;
}

}  // namespace serd::cpu
#endif  // SERD_X86_DISPATCH

#endif  // SERD_COMMON_CPU_H_
