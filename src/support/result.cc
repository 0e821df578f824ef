#include "support/result.hh"

#include <iterator>

namespace hev
{

const char *
hvErrorName(HvError e)
{
    static constexpr const char *names[] = {
#define HEV_HV_ERROR_NAME(name) #name,
        HEV_HV_ERRORS(HEV_HV_ERROR_NAME)
#undef HEV_HV_ERROR_NAME
    };
    const auto index = size_t(e);
    return index < std::size(names) ? names[index] : "Unknown";
}

} // namespace hev
