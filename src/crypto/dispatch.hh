/**
 * @file
 * Runtime CPU dispatch for the batched crypto kernels.
 *
 * The functional MEE path is dominated by AES-CTR pad generation and
 * SipHash MACs. Both are embarrassingly batchable, and on x86 the AES
 * rounds map directly onto the AES-NI / VAES instructions. Because
 * the simulator must produce bit-identical results on every machine,
 * hardware paths are selected at *runtime* (cpuid probe at startup)
 * and the portable scalar path is always compiled in as the
 * differential reference — setBackend(Backend::Scalar) forces it, and
 * the batched implementations are proven byte-identical to it by
 * tests/test_crypto_batch.cc.
 */

#ifndef SHMGPU_CRYPTO_DISPATCH_HH
#define SHMGPU_CRYPTO_DISPATCH_HH

#include <string>

namespace shmgpu::crypto
{

/** A crypto kernel implementation, ordered by preference. */
enum class Backend : int
{
    Scalar = 0, //!< portable C++ (always available, the reference)
    AesNi = 1,  //!< pipelined 128-bit AES-NI, 4/8 blocks in flight
    Vaes = 2,   //!< 256-bit VAES, 2 blocks per register x 4 registers
};

/** Human-readable backend name ("scalar", "aesni", "vaes"). */
const char *backendName(Backend backend);

/**
 * Parse a backend name; "auto" resolves to bestSupportedBackend().
 * Unknown names are fatal, listing the valid set.
 */
Backend backendFromName(const std::string &name);

/** The most capable backend this CPU supports (cpuid probe, cached). */
Backend bestSupportedBackend();

/** True when @p backend can run on this CPU. */
bool backendSupported(Backend backend);

/**
 * The process-wide active backend. Defaults to
 * bestSupportedBackend(); engines snapshot it at construction, so set
 * it before building contexts (tests and micro_crypto force one).
 */
Backend activeBackend();

/** Select @p backend globally; fatal if the CPU cannot run it. */
void setBackend(Backend backend);

} // namespace shmgpu::crypto

#endif // SHMGPU_CRYPTO_DISPATCH_HH
