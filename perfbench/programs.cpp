#include "programs.hpp"

#include <algorithm>
#include <stdexcept>

#include "workloads/bv.hpp"
#include "workloads/qaoa.hpp"
#include "workloads/qft.hpp"
#include "workloads/qsim.hpp"
#include "workloads/suite.hpp"
#include "workloads/vqe.hpp"

namespace perfbench {

using namespace powermove;

namespace {

/** splitmix64 finalizer. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
hashName(const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

Circuit
buildFamily(const std::string &family, std::size_t n, std::uint64_t seed)
{
    if (family == "QAOA-regular3")
        return makeQaoaRegular(n, 3, 1, seed);
    if (family == "QAOA-regular4")
        return makeQaoaRegular(n, 4, 1, seed);
    if (family == "QAOA-random")
        return makeQaoaRandom(n, 0.5, 1, seed);
    if (family == "QFT")
        return makeQft(n);
    if (family == "BV")
        return makeBv(n, seed);
    if (family == "VQE")
        return makeVqe(n, 1, VqeEntanglement::Linear, seed);
    if (family == "QSIM-rand-0.3")
        return makeQsim(n, 0.3, 10, seed);
    throw std::invalid_argument("unknown program family '" + family + "'");
}

} // namespace

std::vector<std::string>
expandProgramList(const std::vector<std::string> &list)
{
    std::vector<std::string> out;
    for (const std::string &entry : list) {
        if (entry == "@table2") {
            for (const BenchmarkSpec &spec : table2Suite())
                out.push_back(spec.name);
        } else {
            out.push_back(entry);
        }
    }
    return out;
}

std::vector<std::string>
distinctNames(const std::vector<std::string> &list)
{
    std::vector<std::string> out;
    for (const std::string &name : list)
        if (std::find(out.begin(), out.end(), name) == out.end())
            out.push_back(name);
    return out;
}

Circuit
buildProgram(const std::string &name, std::uint64_t workload_seed)
{
    const std::size_t at = name.find('@');
    const std::string base = name.substr(0, at);
    const std::size_t dash = base.rfind('-');
    if (dash == std::string::npos || dash + 1 == base.size())
        throw std::invalid_argument("bad program name '" + name + "'");
    const std::string family = base.substr(0, dash);
    const std::size_t n = std::stoul(base.substr(dash + 1));

    Circuit circuit =
        (workload_seed == 0 && at == std::string::npos)
            ? makeFamilyInstance(family, n).build()
            : buildFamily(family, n, mix(workload_seed ^ hashName(name)));
    circuit.setName(name);
    return circuit;
}

} // namespace perfbench
