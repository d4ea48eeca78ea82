#include "config_space.hh"

#include "mem/port.hh"
#include "sim/logging.hh"

namespace pciesim
{

ConfigSpace::ConfigSpace() = default;

void
ConfigSpace::checkAccess(unsigned offset, unsigned size) const
{
    panicIf(size != 1 && size != 2 && size != 4,
            "config access size must be 1, 2, or 4 (got ", size, ")");
    panicIf(offset + size > data_.size(),
            "config access beyond 4KB at offset ", offset);
    panicIf(offset % size != 0,
            "unaligned config access at offset ", offset);
}

std::uint32_t
ConfigSpace::read(unsigned offset, unsigned size) const
{
    checkAccess(offset, size);
    std::uint32_t v = 0;
    for (unsigned i = 0; i < size; ++i)
        v |= static_cast<std::uint32_t>(data_[offset + i]) << (8 * i);
    return v;
}

void
ConfigSpace::write(unsigned offset, unsigned size, std::uint32_t value)
{
    checkAccess(offset, size);
    for (unsigned i = 0; i < size; ++i) {
        std::uint8_t byte = (value >> (8 * i)) & 0xff;
        std::uint8_t mask = wmask_[offset + i];
        data_[offset + i] =
            (data_[offset + i] & ~mask) | (byte & mask);
    }
    RoutingGeneration::bump();
}

void
ConfigSpace::init8(unsigned offset, std::uint8_t v)
{
    data_[offset] = v;
    RoutingGeneration::bump();
}

void
ConfigSpace::init16(unsigned offset, std::uint16_t v)
{
    data_[offset] = v & 0xff;
    data_[offset + 1] = (v >> 8) & 0xff;
    RoutingGeneration::bump();
}

void
ConfigSpace::init32(unsigned offset, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        data_[offset + i] = (v >> (8 * i)) & 0xff;
    RoutingGeneration::bump();
}

void
ConfigSpace::init24(unsigned offset, std::uint32_t v)
{
    for (unsigned i = 0; i < 3; ++i)
        data_[offset + i] = (v >> (8 * i)) & 0xff;
    RoutingGeneration::bump();
}

void
ConfigSpace::mask8(unsigned offset, std::uint8_t writable)
{
    wmask_[offset] = writable;
}

void
ConfigSpace::mask16(unsigned offset, std::uint16_t writable)
{
    wmask_[offset] = writable & 0xff;
    wmask_[offset + 1] = (writable >> 8) & 0xff;
}

void
ConfigSpace::mask32(unsigned offset, std::uint32_t writable)
{
    for (unsigned i = 0; i < 4; ++i)
        wmask_[offset + i] = (writable >> (8 * i)) & 0xff;
}

std::uint16_t
ConfigSpace::raw16(unsigned offset) const
{
    return static_cast<std::uint16_t>(read(offset, 2));
}

std::uint32_t
ConfigSpace::raw32(unsigned offset) const
{
    return read(offset, 4);
}

} // namespace pciesim
