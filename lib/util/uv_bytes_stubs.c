/* Byte kernels for Uv_util: CRC-32 (Crc32.update_sub) and a byte search
   (Memchr.index).

   CRC-32 is the IEEE 802.3 / zlib polynomial, reflected (0xedb88320),
   slicing-by-8: table [k] advances a byte's contribution past [k]
   further zero bytes, so eight bytes fold in with eight independent
   lookups instead of a chain of eight. Each step assembles its first
   four bytes little-endian from single bytes, so the digest is the same
   on either byte order (compilers merge the loads on a little-endian
   host). A tail shorter than eight bytes goes one byte at a time, by
   table 0, the classic bytewise kernel.

   Both kernels are [@@noalloc] with untagged integer arguments: the
   caller has checked the range, and neither can raise or allocate. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

static uint32_t crc_tables[8][256];

value uv_crc32_init(value unit)
{
  (void) unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    crc_tables[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (int n = 0; n < 256; n++) {
      uint32_t prev = crc_tables[k - 1][n];
      crc_tables[k][n] = (prev >> 8) ^ crc_tables[0][prev & 0xff];
    }
  return Val_unit;
}

intnat uv_crc32_update(intnat crc, value s, intnat off, intnat len)
{
  const unsigned char *p = (const unsigned char *) String_val(s) + off;
  uint32_t c = ~(uint32_t) crc;
  while (len >= 8) {
    uint32_t lo = c ^ ((uint32_t) p[0] | (uint32_t) p[1] << 8
                       | (uint32_t) p[2] << 16 | (uint32_t) p[3] << 24);
    c = crc_tables[7][lo & 0xff] ^ crc_tables[6][(lo >> 8) & 0xff]
        ^ crc_tables[5][(lo >> 16) & 0xff] ^ crc_tables[4][lo >> 24]
        ^ crc_tables[3][p[4]] ^ crc_tables[2][p[5]]
        ^ crc_tables[1][p[6]] ^ crc_tables[0][p[7]];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) c = crc_tables[0][(c ^ *p++) & 0xff] ^ (c >> 8);
  return (intnat) (uint32_t) ~c;
}

value uv_crc32_update_byte(value crc, value s, value off, value len)
{
  return Val_long(uv_crc32_update(Long_val(crc), s, Long_val(off), Long_val(len)));
}

/* The offset of the first byte [c] in [s.[off .. off + len - 1]], or -1. */
intnat uv_memchr(value s, intnat off, intnat len, intnat c)
{
  const char *base = String_val(s);
  const char *p = memchr(base + off, (int) c, (size_t) len);
  return p == NULL ? -1 : (intnat) (p - base);
}

value uv_memchr_byte(value s, value off, value len, value c)
{
  return Val_long(uv_memchr(s, Long_val(off), Long_val(len), Long_val(c)));
}
