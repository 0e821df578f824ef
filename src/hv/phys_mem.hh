/**
 * @file
 * Flat physical memory with a hardware-enforced secure region.
 *
 * This is the machine's RAM from Fig. 1.  CPU-originated accesses are
 * mediated by page tables (hv/page_table.hh); the raw load/store here is
 * what a successful translation ultimately performs.  Device-originated
 * (DMA) accesses bypass the EPT but are filtered by the platform's
 * DMA-remapping hardware, which HyperEnclave programs to reject any
 * transaction targeting the reserved secure region; dmaRead/dmaWrite
 * model exactly that filter (trusted hardware in the paper's threat
 * model, Sec. 2.2).
 */

#ifndef HEV_HV_PHYS_MEM_HH
#define HEV_HV_PHYS_MEM_HH

#include <memory>

#include "hv/mem_layout.hh"
#include "support/result.hh"
#include "support/types.hh"

namespace hev::hv
{

/**
 * Word-addressable physical memory (64-bit words, like the EPT frames).
 *
 * The words live in an anonymous mapping, which the kernel zeroes one
 * page at a time on first touch: a machine costs only the memory its
 * run reaches.  PhysMem is move-only; a moved-from object owns no
 * memory.
 */
class PhysMem
{
  public:
    explicit PhysMem(const MemLayout &layout);

    const MemLayout &layout() const { return memLayout; }

    /** Total size in bytes. */
    u64 sizeBytes() const { return memLayout.totalBytes; }

    /** True iff hpa names a valid, 8-byte-aligned word. */
    bool validWord(Hpa hpa) const;

    /** Raw 64-bit load; hpa must be valid and aligned. */
    u64 read(Hpa hpa) const;

    /** Raw 64-bit store; hpa must be valid and aligned. */
    void write(Hpa hpa, u64 value);

    /**
     * DMA load on behalf of an untrusted device.
     *
     * @return the word, or PermissionDenied if the DMA-remap filter
     *         blocks it (target inside the secure region).
     */
    Expected<u64> dmaRead(Hpa hpa) const;

    /** DMA store; blocked for secure-region targets. */
    Status dmaWrite(Hpa hpa, u64 value);

    /**
     * Raw word view of one whole page, for bulk paths (batched page
     * copies and measurement folds) that would otherwise pay an
     * out-of-line read/write per word.  The pointer stays valid until
     * the memory is released (a move hands it on); page_base must be
     * page aligned and in range.
     */
    const u64 *pageWords(Hpa page_base) const;

    /** Mutable variant of pageWords(). */
    u64 *pageWordsMut(Hpa page_base);

    /** Zero an entire page; page_base must be page aligned and in range. */
    void zeroPage(Hpa page_base);

    /** Copy one page of memory; both addresses must be page aligned. */
    void copyPage(Hpa dst_base, Hpa src_base);

    /** True iff hpa lies within the reserved secure region. */
    bool
    inSecure(Hpa hpa) const
    {
        return memLayout.secureRange().contains(hpa);
    }

  private:
    /** Releases the mapping; carries its length for munmap. */
    struct Unmap
    {
        u64 bytes = 0;
        void operator()(u64 *base) const;
    };

    MemLayout memLayout;
    std::unique_ptr<u64[], Unmap> words;
};

} // namespace hev::hv

#endif // HEV_HV_PHYS_MEM_HH
