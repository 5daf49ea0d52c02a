// Runtime dispatch: picks the strongest compiled-in tier the CPU supports,
// once, at first use (thread-safe function-local static). ISLA_KERNELS
// forces the scalar tier for testing the fallback path; asking for a tier
// the machine cannot run clamps down with a notice rather than crashing.

#include "runtime/kernels/kernels.h"

#include <cstdio>
#include <cstdlib>

#include "runtime/kernels/kernels_internal.h"

namespace isla {
namespace runtime {
namespace kernels {

namespace {

// __builtin_cpu_supports only accepts string literals, hence a macro.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define ISLA_CPU_SUPPORTS(feature) \
  (__builtin_cpu_init(), __builtin_cpu_supports(feature) != 0)
#else
#define ISLA_CPU_SUPPORTS(feature) false
#endif

struct Resolved {
  DispatchLevel level;
  const KernelOps* ops;
};

Resolved Resolve() {
  DispatchLevel level = DetectBestLevel();
  if (const char* env = std::getenv("ISLA_KERNELS"); env != nullptr) {
    DispatchLevel forced;
    if (!DispatchLevelFromString(env, &forced)) {
      std::fprintf(stderr,
                   "isla: ignoring unknown ISLA_KERNELS value '%s' "
                   "(expected scalar|avx2)\n",
                   env);
    } else if (static_cast<int>(forced) > static_cast<int>(level)) {
      std::fprintf(stderr,
                   "isla: ISLA_KERNELS=%s not supported on this CPU; "
                   "keeping %s dispatch\n",
                   env, std::string(DispatchLevelName(level)).c_str());
    } else {
      level = forced;
    }
  }
  return {level, &OpsFor(level)};
}

const Resolved& Active() {
  static const Resolved resolved = Resolve();
  return resolved;
}

}  // namespace

std::string_view DispatchLevelName(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return "scalar";
    case DispatchLevel::kAvx2:
      return "avx2";
  }
  return "?";
}

bool DispatchLevelFromString(std::string_view name, DispatchLevel* out) {
  if (name == "scalar") {
    *out = DispatchLevel::kScalar;
  } else if (name == "avx2") {
    *out = DispatchLevel::kAvx2;
  } else {
    return false;
  }
  return true;
}

DispatchLevel DetectBestLevel() {
  if (LevelCompiled(DispatchLevel::kAvx2) && ISLA_CPU_SUPPORTS("avx2")) {
    return DispatchLevel::kAvx2;
  }
  return DispatchLevel::kScalar;
}

bool LevelCompiled(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return true;
    case DispatchLevel::kAvx2:
      return internal::Avx2Ops() != nullptr;
  }
  return false;
}

bool LevelSupported(DispatchLevel level) {
  if (!LevelCompiled(level)) return false;
  switch (level) {
    case DispatchLevel::kScalar:
      return true;
    case DispatchLevel::kAvx2:
      return ISLA_CPU_SUPPORTS("avx2");
  }
  return false;
}

const KernelOps& OpsFor(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kAvx2:
      if (const KernelOps* ops = internal::Avx2Ops(); ops != nullptr) {
        return *ops;
      }
      break;
    case DispatchLevel::kScalar:
      break;
  }
  return internal::ScalarOps();
}

std::vector<DispatchLevel> SupportedLevels() {
  std::vector<DispatchLevel> levels = {DispatchLevel::kScalar};
  if (LevelSupported(DispatchLevel::kAvx2)) {
    levels.push_back(DispatchLevel::kAvx2);
  }
  return levels;
}

const KernelOps& Ops() { return *Active().ops; }

DispatchLevel ActiveLevel() { return Active().level; }

std::string_view ActiveLevelName() {
  return DispatchLevelName(ActiveLevel());
}

std::string CpuFeatureString() {
  std::string features;
  const auto append = [&features](bool supported, const char* name) {
    if (!supported) return;
    if (!features.empty()) features += ',';
    features += name;
  };
  append(ISLA_CPU_SUPPORTS("sse2"), "sse2");
  append(ISLA_CPU_SUPPORTS("sse4.2"), "sse4.2");
  append(ISLA_CPU_SUPPORTS("avx"), "avx");
  append(ISLA_CPU_SUPPORTS("avx2"), "avx2");
  append(ISLA_CPU_SUPPORTS("avx512f"), "avx512f");
  if (features.empty()) features = "none";
  return features;
}

}  // namespace kernels
}  // namespace runtime
}  // namespace isla
