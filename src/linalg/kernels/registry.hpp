// Runtime-dispatched compute-kernel registry (DESIGN.md §12).
//
// The GEMM and fused-convolution inner kernels exist in two interchangeable
// backends, selected once per process at first use:
//
//   * kScalar — portable C++ loops (the historical kernels); always present.
//   * kAvx2   — AVX2 microkernels with B-panel packing and a fused 3x3 conv
//               path; present when the binary was built with AVX2 support
//               AND the CPU reports the avx2 feature bit (CPUID probe, in
//               the spirit of PyTorch's ConvParams::use_* capability tests).
//
// Selection order: force_backend() (the bench harnesses' --kernel flag) >
// the PDNN_KERNEL environment variable > the capability probe. Forcing an
// unavailable backend throws util::CheckError naming the backend — the
// memcmp CI legs rely on "forced means really running", never a silent
// fallback.
//
// Determinism contract (enforced by tests/test_kernels.cpp and the CI
// kernel-dispatch job): every backend computes bit-identical results at any
// thread count, and the two backends are bit-identical to each other. Both
// therefore accumulate each output element's k terms in ascending order with
// an explicit multiply-then-add per term; the kernel translation units are
// compiled with -ffp-contract=off so neither backend silently fuses into
// FMA. The AVX2 speedup comes from register-blocked accumulators, packed
// B panels, and skipping im2col — not from reassociation.
#pragma once

#include <cstdint>
#include <string>

namespace pdnn::linalg {

/// The selectable kernel backends.
enum class KernelBackend { kScalar = 0, kAvx2 = 1 };

constexpr int kKernelBackendCount = 2;

/// Stable lowercase name ("scalar", "avx2") used by PDNN_KERNEL, --kernel,
/// and the metrics JSON "kernel.backend" field.
const char* backend_name(KernelBackend backend);

/// Parse a backend name; throws util::CheckError on anything else.
KernelBackend parse_backend(const std::string& name);

/// "|"-joined names of every *supported* backend on this machine (e.g.
/// "scalar|avx2", or just "scalar" without AVX2). Error messages for a bad
/// --kernel / PDNN_KERNEL value embed this so the user sees what would have
/// worked.
std::string supported_backend_names();

/// True when the backend's kernels are compiled into this binary.
bool backend_compiled(KernelBackend backend);

/// True when the backend is compiled in and the CPU supports it (one-time
/// CPUID probe for kAvx2; kScalar is always supported).
bool backend_supported(KernelBackend backend);

/// The backend every dispatched kernel call uses: the forced backend if
/// force_backend() was called, else PDNN_KERNEL from the environment, else
/// the best supported backend from the capability probe. Throws
/// util::CheckError if PDNN_KERNEL names an unknown or unsupported backend.
KernelBackend active_backend();

/// Force a backend (the --kernel flag, tests). Throws util::CheckError when
/// the backend is not supported on this machine.
void force_backend(KernelBackend backend);

/// Drop the forced backend: active_backend() falls back to PDNN_KERNEL or
/// the probe again (tests and bench teardown).
void clear_forced_backend();

/// Signature shared by the dispatched GEMM kernels; semantics match the
/// public linalg::gemm_* entry points.
using GemmFn = void (*)(int m, int n, int k, float alpha, const float* a,
                        int lda, const float* b, int ldb, float beta, float* c,
                        int ldc);

/// One sample of a 3x3, pad-1 convolution for the fused (im2col-free) path:
/// dst = weights * im2col(src), bit-identical to the lowered gemm_nn.
struct Conv3x3Args {
  const float* src = nullptr;      ///< input sample, cin x h x w
  const float* weights = nullptr;  ///< kernel bank, cout x cin x 3 x 3
  float* dst = nullptr;            ///< output sample, cout x ho x wo
  int cin = 0;
  int h = 0;
  int w = 0;
  int cout = 0;
  int ho = 0;
  int wo = 0;
  int stride = 1;        ///< 1 or 2 (the paper net's only strides)
  bool replicate = true; ///< replication padding; false = zero padding
};

using Conv3x3Fn = void (*)(const Conv3x3Args& args);

/// A backend's kernel set: the two GEMM shapes every conv pass lowers onto
/// (forward and weight gradient through gemm_nn, input gradient through
/// gemm_tn) and the fused 3x3 conv. conv3x3 is null when the backend has no
/// fused path and callers must lower through im2col.
struct KernelTable {
  KernelBackend backend = KernelBackend::kScalar;
  GemmFn gemm_nn = nullptr;
  GemmFn gemm_tn = nullptr;
  Conv3x3Fn conv3x3 = nullptr;
};

/// The kernel table for active_backend().
const KernelTable& kernels();

/// Run the fused 3x3 convolution if the active backend has one and the shape
/// qualifies (pad 1 is implied; stride must be 1 or 2). Returns false when
/// the caller must fall back to im2col + gemm.
bool conv3x3_fused(const Conv3x3Args& args);

}  // namespace pdnn::linalg
