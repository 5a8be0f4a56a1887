// Shapes of the generated benchmark inputs (inputs.cc), shared with the
// workloads that replay or re-derive them.

#ifndef SPECMINE_PERFBENCH_INPUTS_H_
#define SPECMINE_PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/support/status.h"

namespace perfbench {

/// Traces per module of the modular serve_mix corpus.
inline constexpr size_t kModuleTraces = 200;
/// Modules packed into mod.smdbset before the run.
inline constexpr size_t kBaseModules = 2;
/// Modules written as append_N.txt for the run to append.
inline constexpr size_t kAppendModules = 15;

/// \brief The traces of module \p module, one space-separated line each,
/// with module-prefixed event names ("m3.ev17").
std::vector<std::string> ModuleTraces(uint64_t seed, size_t module);

}  // namespace perfbench

#endif  // SPECMINE_PERFBENCH_INPUTS_H_
