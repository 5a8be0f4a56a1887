#ifndef SPECMINE_ITERMINE_SIMD_KERNELS_H_
#define SPECMINE_ITERMINE_SIMD_KERNELS_H_

namespace specmine {

// Stamped into perfbench result lines; the word primitives are scalar C++.
inline const char* SimdDispatchLevel() { return "scalar"; }

}  // namespace specmine

#endif  // SPECMINE_ITERMINE_SIMD_KERNELS_H_
