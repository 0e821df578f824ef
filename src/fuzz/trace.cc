#include "fuzz/trace.hh"

#include <fstream>
#include <sstream>

namespace hev::fuzz
{

namespace
{

constexpr const char *traceHeader = "hev-trace v1";

constexpr const char *kindNames[opKindCount] = {
#define HEV_OP_NAME(kind, name) name,
    HEV_FUZZ_OPS(HEV_OP_NAME)
#undef HEV_OP_NAME
};

/** Parse a decimal or 0x-hex u64. */
std::optional<u64>
parseNumber(const std::string &token)
{
    if (token.empty())
        return std::nullopt;
    u64 value = 0;
    if (token.size() > 2 && token[0] == '0' &&
        (token[1] == 'x' || token[1] == 'X')) {
        for (size_t i = 2; i < token.size(); ++i) {
            const char c = token[i];
            u64 digit;
            if (c >= '0' && c <= '9')
                digit = u64(c - '0');
            else if (c >= 'a' && c <= 'f')
                digit = u64(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                digit = u64(c - 'A' + 10);
            else
                return std::nullopt;
            value = (value << 4) | digit;
        }
        return value;
    }
    for (const char c : token) {
        if (c < '0' || c > '9')
            return std::nullopt;
        value = value * 10 + u64(c - '0');
    }
    return value;
}

} // namespace

const char *
opKindName(OpKind kind)
{
    const u32 index = u32(kind);
    return index < opKindCount ? kindNames[index] : "?";
}

std::optional<OpKind>
opKindFromName(const std::string &name)
{
    for (u32 i = 0; i < opKindCount; ++i)
        if (name == kindNames[i])
            return OpKind(i);
    return std::nullopt;
}

std::string
serializeTrace(const Trace &trace)
{
    std::ostringstream out;
    out << traceHeader << "\n";
    if (trace.scheduleSeed != 0)
        out << "schedule-seed " << trace.scheduleSeed << "\n";
    for (const Op &op : trace.ops) {
        out << "op " << opKindName(op.kind) << " " << op.a << " " << op.b
            << " " << op.c << " " << op.d;
        if (op.vcpu != 0)
            out << " vcpu=" << op.vcpu;
        out << "\n";
    }
    return out.str();
}

std::optional<Trace>
parseTrace(const std::string &text, std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return std::nullopt;
    };

    std::istringstream in(text);
    std::string line;
    bool sawHeader = false;
    Trace trace;
    u64 lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        // Trim trailing CR and surrounding spaces.
        while (!line.empty() &&
               (line.back() == '\r' || line.back() == ' ' ||
                line.back() == '\t'))
            line.pop_back();
        size_t start = 0;
        while (start < line.size() &&
               (line[start] == ' ' || line[start] == '\t'))
            ++start;
        line = line.substr(start);
        if (line.empty() || line[0] == '#')
            continue;
        if (!sawHeader) {
            if (line != traceHeader)
                return fail("line " + std::to_string(lineNo) +
                            ": expected header '" +
                            std::string(traceHeader) + "'");
            sawHeader = true;
            continue;
        }
        std::istringstream fields(line);
        std::string tag, name;
        fields >> tag >> name;
        if (tag == "schedule-seed") {
            const auto value = parseNumber(name);
            if (!value)
                return fail("line " + std::to_string(lineNo) +
                            ": bad schedule seed '" + name + "'");
            std::string extra;
            if (fields >> extra)
                return fail("line " + std::to_string(lineNo) +
                            ": trailing token '" + extra + "'");
            trace.scheduleSeed = *value;
            continue;
        }
        if (tag != "op")
            return fail("line " + std::to_string(lineNo) +
                        ": expected 'op', got '" + tag + "'");
        const auto kind = opKindFromName(name);
        if (!kind)
            return fail("line " + std::to_string(lineNo) +
                        ": unknown op '" + name + "'");
        Op op;
        op.kind = *kind;
        u64 *args[4] = {&op.a, &op.b, &op.c, &op.d};
        for (u64 *arg : args) {
            std::string token;
            if (!(fields >> token))
                return fail("line " + std::to_string(lineNo) +
                            ": expected 4 arguments");
            const auto value = parseNumber(token);
            if (!value)
                return fail("line " + std::to_string(lineNo) +
                            ": bad number '" + token + "'");
            *arg = *value;
        }
        std::string extra;
        if (fields >> extra) {
            if (extra.rfind("vcpu=", 0) != 0)
                return fail("line " + std::to_string(lineNo) +
                            ": trailing token '" + extra + "'");
            const auto value = parseNumber(extra.substr(5));
            if (!value)
                return fail("line " + std::to_string(lineNo) +
                            ": bad vcpu '" + extra + "'");
            op.vcpu = u32(*value);
            std::string more;
            if (fields >> more)
                return fail("line " + std::to_string(lineNo) +
                            ": trailing token '" + more + "'");
        }
        trace.ops.push_back(op);
    }
    if (!sawHeader)
        return fail("missing 'hev-trace v1' header");
    return trace;
}

bool
writeTraceFile(const Trace &trace, const std::string &path)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << serializeTrace(trace);
    return bool(out);
}

std::optional<Trace>
readTraceFile(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open " + path;
        return std::nullopt;
    }
    std::ostringstream content;
    content << in.rdbuf();
    return parseTrace(content.str(), error);
}

} // namespace hev::fuzz
