#include "ccal/flat_state.hh"

#include <algorithm>

#include "mirlight/interp.hh"
#include "support/logging.hh"

namespace hev::ccal
{

using mir::Done;
using mir::Outcome;
using mir::Trap;
using mir::TrapKind;
using mir::Value;

FrameWords::FrameWords(const FrameWords &other) : frames(other.frames.size())
{
    for (u64 i = 0; i < frames.size(); ++i)
        if (other.frames[i])
            frames[i] = std::make_unique<Page>(*other.frames[i]);
}

FrameWords &
FrameWords::operator=(const FrameWords &other)
{
    if (this != &other)
        *this = FrameWords(other);
    return *this;
}

void
FrameWords::set(u64 index, u64 value)
{
    std::unique_ptr<Page> &page = frames[index / entriesPerTable];
    if (!page) {
        if (value == 0)
            return;
        page = std::make_unique<Page>();
    }
    (*page)[index % entriesPerTable] = value;
}

u64
FrameWords::framesPresent() const
{
    return u64(std::count_if(frames.begin(), frames.end(),
                             [](const auto &page) { return bool(page); }));
}

bool
FrameWords::operator==(const FrameWords &other) const
{
    if (frames.size() != other.frames.size())
        return false;
    const auto zero = [](const Page &page) {
        return std::all_of(page.begin(), page.end(),
                           [](u64 word) { return word == 0; });
    };
    for (u64 i = 0; i < frames.size(); ++i) {
        const Page *a = frames[i].get();
        const Page *b = other.frames[i].get();
        if (a == b)
            continue;
        const bool same = !a ? zero(*b) : !b ? zero(*a) : *a == *b;
        if (!same)
            return false;
    }
    return true;
}

FlatState::FlatState(const Geometry &geometry)
    : geo(geometry), words(geometry.frameCount)
{
    allocated.assign(geo.frameCount, false);
    epcm.assign(geo.epcCount, AbsEpcmEntry{});
}

bool
FlatState::validWord(u64 addr) const
{
    return addr % sizeof(u64) == 0 && geo.inFrameArea(addr);
}

u64
FlatState::readWord(u64 addr) const
{
    if (!validWord(addr))
        panic("flat state read of invalid word %#llx",
              (unsigned long long)addr);
    return words[(addr - geo.frameBase) / sizeof(u64)];
}

void
FlatState::writeWord(u64 addr, u64 value)
{
    if (!validWord(addr))
        panic("flat state write of invalid word %#llx",
              (unsigned long long)addr);
    words.set((addr - geo.frameBase) / sizeof(u64), value);
}

void
FlatState::zeroFrame(u64 frame)
{
    if (frame % pageSize != 0 || !geo.inFrameArea(frame))
        panic("flat state zero of invalid frame %#llx",
              (unsigned long long)frame);
    words.zeroFrame((frame - geo.frameBase) / pageSize);
}

Outcome<Value>
FlatAbsState::trustedLoad(u32 handler, u64 meta)
{
    switch (handler) {
      case physWordHandler:
        if (!flat.validWord(meta)) {
            return Trap{TrapKind::TrustedFault,
                        "phys load outside the frame area"};
        }
        return Value::intVal(i64(flat.readWord(meta)));
      case bitmapHandler:
        if (meta >= flat.allocated.size()) {
            return Trap{TrapKind::TrustedFault,
                        "bitmap index out of range"};
        }
        return Value::boolVal(flat.allocated[meta]);
      case epcmHandler: {
        if (meta >= flat.epcm.size()) {
            return Trap{TrapKind::TrustedFault, "EPCM index out of range"};
        }
        const AbsEpcmEntry &entry = flat.epcm[meta];
        return Value::tuple({Value::intVal(entry.state),
                             Value::intVal(entry.owner),
                             Value::intVal(i64(entry.linAddr))});
      }
      default:
        return Trap{TrapKind::TrustedFault, "unknown trusted handler"};
    }
}

Outcome<Done>
FlatAbsState::trustedStore(u32 handler, u64 meta, const Value &value)
{
    switch (handler) {
      case physWordHandler:
        if (!flat.validWord(meta)) {
            return Trap{TrapKind::TrustedFault,
                        "phys store outside the frame area"};
        }
        if (!value.isInt())
            return Trap{TrapKind::TrustedFault, "phys store of non-int"};
        flat.writeWord(meta, u64(value.asInt()));
        return Done{};
      case bitmapHandler:
        if (meta >= flat.allocated.size()) {
            return Trap{TrapKind::TrustedFault,
                        "bitmap index out of range"};
        }
        if (!value.isInt())
            return Trap{TrapKind::TrustedFault, "bitmap store of non-int"};
        flat.allocated[meta] = value.asInt() != 0;
        return Done{};
      case epcmHandler: {
        if (meta >= flat.epcm.size())
            return Trap{TrapKind::TrustedFault, "EPCM index out of range"};
        if (!value.isAggregate() ||
            value.asAggregate().fields.size() != 3)
            return Trap{TrapKind::TrustedFault, "EPCM store of non-entry"};
        const auto &fields = value.asAggregate().fields;
        if (!fields[0].isInt() || !fields[1].isInt() || !fields[2].isInt())
            return Trap{TrapKind::TrustedFault, "EPCM fields must be ints"};
        flat.epcm[meta] = {fields[0].asInt(), fields[1].asInt(),
                           u64(fields[2].asInt())};
        return Done{};
      }
      default:
        return Trap{TrapKind::TrustedFault, "unknown trusted handler"};
    }
}

namespace
{

/** Layer tag stamped into RData pointers by the address-space layer. */
constexpr u32 addrSpaceLayer = 11;

Outcome<i64>
wantInt(const std::vector<Value> &args, size_t index)
{
    if (index >= args.size() || !args[index].isInt())
        return Trap{TrapKind::TypeError, "trusted primitive expects int"};
    return args[index].asInt();
}

} // namespace

void
registerTrustedLayer(mir::Interp &interp, FlatState &state)
{
    FlatState *flat = &state;

    // The unsafe int-to-pointer casts, ascribed trusted-pointer specs
    // (paper Sec. 3.4, "trusted pointers").
    interp.registerPrimitive(
        "pt_ptr",
        [](mir::Interp &, std::vector<Value> args) -> Outcome<Value> {
            auto addr = wantInt(args, 0);
            if (!addr)
                return addr.trap();
            return Value::trustedPtr(FlatAbsState::physWordHandler,
                                     u64(*addr));
        });
    interp.registerPrimitive(
        "bitmap_ptr",
        [](mir::Interp &, std::vector<Value> args) -> Outcome<Value> {
            auto index = wantInt(args, 0);
            if (!index)
                return index.trap();
            return Value::trustedPtr(FlatAbsState::bitmapHandler,
                                     u64(*index));
        });
    interp.registerPrimitive(
        "epcm_ptr",
        [](mir::Interp &, std::vector<Value> args) -> Outcome<Value> {
            auto index = wantInt(args, 0);
            if (!index)
                return index.trap();
            return Value::trustedPtr(FlatAbsState::epcmHandler,
                                     u64(*index));
        });

    // RData internals of the address-space layer: registering a root
    // forges a handle; resolving one is only possible here, inside the
    // owning layer.
    interp.registerPrimitive(
        "as_register",
        [flat](mir::Interp &, std::vector<Value> args) -> Outcome<Value> {
            auto root = wantInt(args, 0);
            if (!root)
                return root.trap();
            const i64 handle = flat->nextHandle++;
            flat->asRoots[handle] = u64(*root);
            return Value::rdataPtr(addrSpaceLayer, {handle});
        });
    interp.registerPrimitive(
        "as_root",
        [flat](mir::Interp &, std::vector<Value> args) -> Outcome<Value> {
            if (args.empty() || !args[0].isRDataPtr() ||
                args[0].asRData().owner != addrSpaceLayer ||
                args[0].asRData().payload.size() != 1) {
                return mir::result::err(Value::intVal(errForeignHandle));
            }
            const i64 handle = args[0].asRData().payload[0];
            auto it = flat->asRoots.find(handle);
            if (it == flat->asRoots.end())
                return mir::result::err(Value::intVal(errForeignHandle));
            return mir::result::ok(Value::intVal(i64(it->second)));
        });

    // Enclave-metadata accessors of the hypercall layer.
    interp.registerPrimitive(
        "encl_register",
        [flat](mir::Interp &, std::vector<Value> args) -> Outcome<Value> {
            if (args.size() != 7 || !args[5].isRDataPtr() ||
                !args[6].isRDataPtr()) {
                return Trap{TrapKind::TypeError,
                            "encl_register expects geometry + 2 handles"};
            }
            AbsEnclave enclave;
            enclave.elStart = u64(args[0].asInt());
            enclave.elEnd = u64(args[1].asInt());
            enclave.mbufGva = u64(args[2].asInt());
            enclave.mbufPages = u64(args[3].asInt());
            enclave.mbufBacking = u64(args[4].asInt());
            enclave.gptHandle = args[5].asRData().payload.at(0);
            enclave.eptHandle = args[6].asRData().payload.at(0);
            const i64 id = flat->nextEnclave++;
            flat->enclaves[id] = enclave;
            return Value::intVal(id);
        });
    interp.registerPrimitive(
        "encl_get",
        [flat](mir::Interp &, std::vector<Value> args) -> Outcome<Value> {
            auto id = wantInt(args, 0);
            if (!id)
                return id.trap();
            auto it = flat->enclaves.find(*id);
            if (it == flat->enclaves.end() ||
                it->second.state == enclStateDead)
                return mir::option::none();
            const AbsEnclave &e = it->second;
            return mir::option::some(Value::tuple(
                {Value::intVal(e.state), Value::intVal(i64(e.elStart)),
                 Value::intVal(i64(e.elEnd)),
                 Value::rdataPtr(addrSpaceLayer, {e.gptHandle}),
                 Value::rdataPtr(addrSpaceLayer, {e.eptHandle}),
                 Value::intVal(i64(e.addedPages)),
                 Value::intVal(i64(e.tcsPages))}));
        });
    interp.registerPrimitive(
        "encl_bump",
        [flat](mir::Interp &, std::vector<Value> args) -> Outcome<Value> {
            auto id = wantInt(args, 0);
            auto kind = wantInt(args, 1);
            if (!id || !kind)
                return Trap{TrapKind::TypeError, "encl_bump(id, kind)"};
            auto it = flat->enclaves.find(*id);
            if (it == flat->enclaves.end())
                return Trap{TrapKind::PrimitiveError, "no such enclave"};
            ++it->second.addedPages;
            if (*kind == epcStateTcs)
                ++it->second.tcsPages;
            return Value::unit();
        });
    interp.registerPrimitive(
        "encl_finish",
        [flat](mir::Interp &, std::vector<Value> args) -> Outcome<Value> {
            auto id = wantInt(args, 0);
            if (!id)
                return id.trap();
            auto it = flat->enclaves.find(*id);
            if (it == flat->enclaves.end())
                return Trap{TrapKind::PrimitiveError, "no such enclave"};
            it->second.state = enclStateInitialized;
            return Value::unit();
        });

    interp.registerPrimitive(
        "as_unregister",
        [flat](mir::Interp &, std::vector<Value> args) -> Outcome<Value> {
            if (args.empty() || !args[0].isRDataPtr() ||
                args[0].asRData().owner != addrSpaceLayer ||
                args[0].asRData().payload.size() != 1) {
                return Trap{TrapKind::TypeError,
                            "as_unregister expects an AS handle"};
            }
            flat->asRoots.erase(args[0].asRData().payload[0]);
            return Value::unit();
        });
    interp.registerPrimitive(
        "encl_kill",
        [flat](mir::Interp &, std::vector<Value> args) -> Outcome<Value> {
            auto id = wantInt(args, 0);
            if (!id)
                return id.trap();
            auto it = flat->enclaves.find(*id);
            if (it == flat->enclaves.end())
                return Trap{TrapKind::PrimitiveError, "no such enclave"};
            it->second.state = enclStateDead;
            return Value::unit();
        });
    interp.registerPrimitive(
        "scrub_page",
        [flat](mir::Interp &, std::vector<Value> args) -> Outcome<Value> {
            auto page = wantInt(args, 0);
            if (!page)
                return page.trap();
            flat->pageContents.erase(u64(*page));
            return Value::unit();
        });

    // Page-content copy: trusted, like memcpy in the Rust code.  The
    // token records provenance so the checker can compare effects.
    interp.registerPrimitive(
        "copy_page",
        [flat](mir::Interp &, std::vector<Value> args) -> Outcome<Value> {
            auto dst = wantInt(args, 0);
            auto src = wantInt(args, 1);
            if (!dst || !src)
                return Trap{TrapKind::TypeError, "copy_page(dst, src)"};
            flat->pageContents[u64(*dst)] = u64(*src);
            return Value::unit();
        });
}

} // namespace hev::ccal
