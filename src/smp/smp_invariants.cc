#include "smp/smp_invariants.hh"

#include <map>
#include <sstream>

namespace hev::smp
{

namespace
{

std::string
hex(u64 v)
{
    std::ostringstream os;
    os << std::hex << "0x" << v;
    return os.str();
}

} // namespace

std::vector<std::string>
checkTlbCoherence(const SmpMonitor &smp)
{
    std::vector<std::string> violations;
    for (VcpuId v = 0; v < smp.vcpuCount(); ++v) {
        smp.tlbOf(v).forEach([&](hv::DomainId domain, u64 va_page,
                                 const hv::TlbEntry &entry) {
            if (smp.shootdownInFlight(domain))
                return;
            std::ostringstream os;
            os << "vcpu " << v << " tlb[domain " << domain << ", va "
               << hex(va_page) << "]: ";

            if (domain != hv::normalVmDomain &&
                !smp.monitor().findEnclave(domain)) {
                os << "entry for dead enclave domain survived its destroy";
                violations.push_back(os.str());
                return;
            }
            auto hpa = smp.translateAuthoritative(v, domain, Gva(va_page),
                                                  entry.writable);
            if (!hpa) {
                os << "cached "
                   << (entry.writable ? "writable" : "read-only")
                   << " -> " << hex(entry.hpaPage)
                   << " but the tables no longer translate it ("
                   << hvErrorName(hpa.error()) << ")";
                violations.push_back(os.str());
                return;
            }
            if (hpa->pageBase().value != entry.hpaPage) {
                os << "cached -> " << hex(entry.hpaPage)
                   << " but the tables say " << hex(hpa->pageBase().value);
                violations.push_back(os.str());
            }
        });
    }
    return violations;
}

std::vector<std::string>
checkSmpInvariants(const SmpMonitor &smp)
{
    std::vector<std::string> violations;
    const hv::Monitor &mon = smp.monitor();
    std::map<EnclaveId, u32> resident;

    for (VcpuId v = 0; v < smp.vcpuCount(); ++v) {
        const hv::VCpu &arch = smp.archOf(v);
        std::ostringstream os;
        os << "vcpu " << v << ": ";
        if (arch.mode == hv::CpuMode::GuestEnclave) {
            ++resident[arch.currentEnclave];
            const hv::Enclave *enclave = mon.findEnclave(arch.currentEnclave);
            if (arch.currentEnclave == invalidEnclave) {
                os << "enclave mode with no current enclave";
                violations.push_back(os.str());
            } else if (!enclave) {
                os << "resident in dead enclave " << arch.currentEnclave;
                violations.push_back(os.str());
            } else {
                if (arch.domain != arch.currentEnclave) {
                    os << "domain " << arch.domain << " != enclave "
                       << arch.currentEnclave;
                    violations.push_back(os.str());
                }
                if (arch.gptRoot != enclave->gptRoot ||
                    arch.eptRoot != enclave->eptRoot) {
                    os << "translation roots differ from enclave "
                       << arch.currentEnclave << "'s";
                    violations.push_back(os.str());
                }
            }
        } else {
            if (arch.domain != hv::normalVmDomain) {
                os << "normal mode with domain " << arch.domain;
                violations.push_back(os.str());
            } else if (arch.currentEnclave != invalidEnclave) {
                os << "normal mode with current enclave "
                   << arch.currentEnclave;
                violations.push_back(os.str());
            } else if (arch.eptRoot != mon.normalEptRoot()) {
                os << "normal mode with foreign EPT root";
                violations.push_back(os.str());
            }
        }
    }

    mon.forEachEnclave([&](const hv::Enclave &enclave) {
        const u32 counted = resident.count(enclave.id)
                                ? resident.at(enclave.id)
                                : 0;
        if (enclave.activeVcpus != counted) {
            std::ostringstream os;
            os << "enclave " << enclave.id << ": activeVcpus "
               << enclave.activeVcpus << " but " << counted
               << " vCPUs are resident";
            violations.push_back(os.str());
        }
        if (u64(enclave.activeVcpus) > enclave.tcsPages) {
            std::ostringstream os;
            os << "enclave " << enclave.id << ": occupancy "
               << enclave.activeVcpus << " exceeds " << enclave.tcsPages
               << " TCS pages";
            violations.push_back(os.str());
        }
    });
    return violations;
}

} // namespace hev::smp
