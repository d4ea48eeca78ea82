/**
 * @file
 * Location of the example topologies, shared by the tests that load
 * them.
 */

#ifndef PCIESIM_TESTS_COMMON_TOPOLOGY_DIR_HH
#define PCIESIM_TESTS_COMMON_TOPOLOGY_DIR_HH

#include <string>

namespace pciesim::test
{

/**
 * examples/topologies: the absolute path the build passes in as
 * PCIESIM_TOPOLOGY_DIR, else relative to the repository root.
 */
inline std::string
topologyDir()
{
#ifdef PCIESIM_TOPOLOGY_DIR
    return PCIESIM_TOPOLOGY_DIR;
#else
    return "examples/topologies";
#endif
}

} // namespace pciesim::test

#endif // PCIESIM_TESTS_COMMON_TOPOLOGY_DIR_HH
