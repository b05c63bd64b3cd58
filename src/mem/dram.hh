/**
 * @file
 * DDR3 DRAM organization, timing parameters, and address decoding.
 *
 * Baseline (Table I): DDR3-1600 (800 MHz command clock), 2 channels,
 * 2 ranks per channel, 16 banks per rank. Timings follow common
 * DDR3-1600 CL11 parts.
 */

#ifndef GPUWALK_MEM_DRAM_HH
#define GPUWALK_MEM_DRAM_HH

#include <cstdint>

#include "mem/types.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace gpuwalk::mem {

/** Organization and timing of the DRAM subsystem. */
struct DramConfig
{
    unsigned channels = 2;
    unsigned ranksPerChannel = 2;
    unsigned banksPerRank = 16;

    /** Row size (per bank) in bytes: determines row-hit locality. */
    Addr rowBytes = 8192;

    /** Command clock period in ticks (DDR3-1600: 1.25 ns). */
    sim::Tick tCK = 1250;

    // Timings in command-clock cycles (DDR3-1600 CL11 class).
    unsigned tRCD = 11;  ///< ACT to internal READ/WRITE
    unsigned tCL = 11;   ///< READ to first data
    unsigned tRP = 11;   ///< PRE to ACT
    unsigned tRAS = 28;  ///< ACT to PRE (min)
    unsigned tBURST = 4; ///< data burst occupancy (BL8, DDR)
    unsigned tWR = 12;   ///< end of write data to PRE
    unsigned tCCD = 4;   ///< CAS to CAS, same rank

    /**
     * All-bank refresh: every tREFI the rank is unavailable for tRFC
     * and all its rows close. Modelled lazily (no periodic events):
     * commands landing in a refresh window are pushed past it, and a
     * row opened before the last refresh boundary reads as closed.
     */
    bool enableRefresh = true;
    sim::Tick tREFI = 7'800'000; ///< 7.8 us in ticks
    sim::Tick tRFC = 260'000;    ///< 260 ns in ticks

    sim::Tick rcd() const { return tRCD * tCK; }
    sim::Tick cl() const { return tCL * tCK; }
    sim::Tick rp() const { return tRP * tCK; }
    sim::Tick ras() const { return tRAS * tCK; }
    sim::Tick burst() const { return tBURST * tCK; }
    sim::Tick wr() const { return tWR * tCK; }
    sim::Tick ccd() const { return tCCD * tCK; }

    void
    validate() const
    {
        GPUWALK_ASSERT(channels > 0 && (channels & (channels - 1)) == 0,
                       "channels must be a power of two");
        GPUWALK_ASSERT(rowBytes % cacheLineSize == 0, "rowBytes alignment");
    }
};

/** The DRAM coordinates of a physical address. */
struct DramAddress
{
    unsigned channel = 0;
    unsigned rank = 0;
    unsigned bank = 0;
    std::uint64_t row = 0;
    std::uint64_t column = 0; ///< line-sized column index within the row
};

/**
 * Decodes a physical address into DRAM coordinates.
 *
 * Mapping (low to high bits): line offset | channel | bank | rank | row.
 * Interleaving consecutive lines across channels, then banks, spreads
 * streaming traffic for bank-level parallelism, the conventional
 * performance-oriented mapping.
 */
class DramAddressMapper
{
  public:
    explicit DramAddressMapper(const DramConfig &cfg) : cfg_(cfg)
    {
        cfg_.validate();
        linesPerRow_ = cfg_.rowBytes / cacheLineSize;
    }

    DramAddress
    decode(Addr addr) const
    {
        DramAddress d;
        std::uint64_t line = addr / cacheLineSize;
        d.channel = static_cast<unsigned>(line % cfg_.channels);
        line /= cfg_.channels;
        d.bank = static_cast<unsigned>(line % cfg_.banksPerRank);
        line /= cfg_.banksPerRank;
        d.rank = static_cast<unsigned>(line % cfg_.ranksPerChannel);
        line /= cfg_.ranksPerChannel;
        d.column = line % linesPerRow_;
        d.row = line / linesPerRow_;
        return d;
    }

    /** Flat bank index within a channel: rank * banksPerRank + bank. */
    unsigned
    flatBank(const DramAddress &d) const
    {
        return d.rank * cfg_.banksPerRank + d.bank;
    }

    unsigned banksPerChannel() const
    {
        return cfg_.ranksPerChannel * cfg_.banksPerRank;
    }

  private:
    DramConfig cfg_;
    std::uint64_t linesPerRow_ = 0;
};

} // namespace gpuwalk::mem

#endif // GPUWALK_MEM_DRAM_HH
