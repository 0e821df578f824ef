#include "hv/phys_mem.hh"

#include <sys/mman.h>

#include <cstring>

#include "support/logging.hh"

namespace hev::hv
{

namespace
{

/** Map zeroed words for a valid layout; the kernel zeroes each page on
 *  first touch. */
u64 *
mapZeroedWords(const MemLayout &layout)
{
    if (!layout.valid())
        fatal("invalid physical memory layout (total=%llu pt=%llu epc=%llu)",
              (unsigned long long)layout.totalBytes,
              (unsigned long long)layout.ptAreaBytes,
              (unsigned long long)layout.epcBytes);
    void *base = mmap(nullptr, layout.totalBytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED)
        fatal("cannot map %llu bytes of physical memory",
              (unsigned long long)layout.totalBytes);
    return static_cast<u64 *>(base);
}

} // namespace

PhysMem::PhysMem(const MemLayout &layout)
    : memLayout(layout),
      words(mapZeroedWords(layout), Unmap{layout.totalBytes})
{
}

void
PhysMem::Unmap::operator()(u64 *base) const
{
    munmap(base, bytes);
}

bool
PhysMem::validWord(Hpa hpa) const
{
    return hpa.value % sizeof(u64) == 0 && hpa.value < memLayout.totalBytes;
}

u64
PhysMem::read(Hpa hpa) const
{
    if (!validWord(hpa))
        panic("phys read of invalid word address %#llx",
              (unsigned long long)hpa.value);
    return words[hpa.value / sizeof(u64)];
}

void
PhysMem::write(Hpa hpa, u64 value)
{
    if (!validWord(hpa))
        panic("phys write of invalid word address %#llx",
              (unsigned long long)hpa.value);
    words[hpa.value / sizeof(u64)] = value;
}

Expected<u64>
PhysMem::dmaRead(Hpa hpa) const
{
    if (!validWord(hpa))
        return HvError::InvalidParam;
    if (inSecure(hpa))
        return HvError::PermissionDenied;
    return read(hpa);
}

Status
PhysMem::dmaWrite(Hpa hpa, u64 value)
{
    if (!validWord(hpa))
        return HvError::InvalidParam;
    if (inSecure(hpa))
        return HvError::PermissionDenied;
    write(hpa, value);
    return okStatus();
}

const u64 *
PhysMem::pageWords(Hpa page_base) const
{
    if (!page_base.pageAligned() ||
        page_base.value + pageSize > memLayout.totalBytes)
        panic("pageWords of invalid page %#llx",
              (unsigned long long)page_base.value);
    return &words[page_base.value / sizeof(u64)];
}

u64 *
PhysMem::pageWordsMut(Hpa page_base)
{
    if (!page_base.pageAligned() ||
        page_base.value + pageSize > memLayout.totalBytes)
        panic("pageWords of invalid page %#llx",
              (unsigned long long)page_base.value);
    return &words[page_base.value / sizeof(u64)];
}

void
PhysMem::zeroPage(Hpa page_base)
{
    std::memset(pageWordsMut(page_base), 0, pageSize);
}

void
PhysMem::copyPage(Hpa dst_base, Hpa src_base)
{
    if (!dst_base.pageAligned() || !src_base.pageAligned())
        panic("copyPage of unaligned addresses");
    for (u64 off = 0; off < pageSize; off += sizeof(u64))
        write(dst_base + off, read(src_base + off));
}

} // namespace hev::hv
