// Known-bad [isa-flags]: an intrinsics header and vector intrinsics.
// The rule has no exempt paths, so these bytes are findings under any
// --as path (lint_test scans them as a src/core and a src/trace TU).

#include <immintrin.h>

inline int
sum16(const unsigned char *p)
{
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    return _mm_extract_epi16(v, 0);
}
