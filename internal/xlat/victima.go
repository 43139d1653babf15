package xlat

import (
	"fmt"

	"atcsim/internal/cache"
	"atcsim/internal/mem"
)

func init() {
	Register("victima", newVictima)
	// Victima's translate path probes and fills the shared LLC, so a
	// multi-core victima run resumes every core on one goroutine.
	MarkShared("victima")
}

// tlbLineBit tags the synthetic line-address namespace Victima's TLB blocks
// occupy inside the data caches. Physical line numbers fit in PhysBits-6 ≤
// 42 bits and 4KB VPNs in VABits-12 = 45 bits, so bit 50 can never collide
// with either: a TLB block and a data block never share a tag.
const tlbLineBit mem.Addr = 1 << 50

// tlbLine maps a VPN into the TLB-block line namespace. The set index a
// cache derives from the line is then a function of the VPN's low bits,
// spreading translations across sets like hardware Victima does.
func tlbLine(vpn mem.Addr) mem.Addr { return vpn | tlbLineBit }

// victima implements the Victima mechanism (PAPERS.md): translations
// evicted from the STLB are re-inserted as TLB blocks into underutilized
// L2C/LLC sets, and an STLB miss probes those blocks before paying for a
// page walk. The underutilization predictor lives in the cache (per-set
// saturating counters trained on dead evictions); this type owns the STLB
// eviction hook and the lookup ladder.
//
// Timing model: the cache-as-TLB probe runs in parallel with walk
// initiation, so a probe miss adds no latency; a probe hit returns at the
// servicing level's hit latency and squashes the walk.
type victima struct {
	d  Deps
	st Stats
	// now is the cycle of the translation currently being serviced. The
	// STLB eviction hook fires inside tlb.Insert, which carries no cycle,
	// so inserts are timestamped with the translation that displaced them.
	now int64
}

func newVictima(d Deps) (Mechanism, error) {
	if d.L2 == nil || d.LLC == nil {
		return nil, fmt.Errorf("xlat: victima requires L2 and LLC caches")
	}
	v := &victima{d: d}
	d.L2.EnableTLBBlocks()
	d.LLC.EnableTLBBlocks()
	if d.STLB != nil {
		d.STLB.SetEvictHook(v.onSTLBEvict)
	}
	return v, nil
}

func (v *victima) Name() string { return "victima" }

// onSTLBEvict observes a 4KB entry leaving the STLB and tries to park it in
// an underutilized cache set, preferring L2C (closer, per the Victima
// paper) and falling back to the LLC.
func (v *victima) onSTLBEvict(vpn, frame mem.Addr) {
	line := tlbLine(vpn)
	if v.d.L2.PredictUnderutilized(line) && v.d.L2.InsertTLBEntry(line, frame, v.now) {
		v.st.TLBBlockInserts++
		return
	}
	if v.d.LLC.PredictUnderutilized(line) && v.d.LLC.InsertTLBEntry(line, frame, v.now) {
		v.st.TLBBlockInserts++
		return
	}
	v.st.TLBBlockRejects++
}

func (v *victima) Translate(va, ip mem.Addr, cycle int64, walk WalkFn) (Outcome, error) {
	v.st.Requests++
	v.now = cycle
	line := tlbLine(mem.PageNumber(va))
	if frame, ready, ok := v.d.L2.LookupTLBEntry(line, cycle); ok {
		v.st.CacheHitsL2++
		pa := frame | mem.PageOffset(va)
		v.d.verify("victima", va, pa)
		return Outcome{PA: pa, Ready: ready, LeafSrc: mem.LvlL2, CacheHit: true}, nil
	}
	if frame, ready, ok := v.d.LLC.LookupTLBEntry(line, cycle); ok {
		v.st.CacheHitsLLC++
		pa := frame | mem.PageOffset(va)
		v.d.verify("victima", va, pa)
		return Outcome{PA: pa, Ready: ready, LeafSrc: mem.LvlLLC, CacheHit: true}, nil
	}
	out, err := walk(va, ip, cycle)
	if err != nil {
		return Outcome{}, err
	}
	v.st.Walks++
	v.now = out.Ready
	v.d.verify("victima", va, out.PA)
	return out, nil
}

func (v *victima) Stats() Stats { return v.st }

func (v *victima) ResetStats() { v.st = Stats{} }

// CheckInvariants verifies every cache-resident TLB block against the
// naive-walk oracle: a stale or corrupted block would silently translate to
// the wrong frame, so this is the mechanism's core safety property.
func (v *victima) CheckInvariants() error {
	if v.d.Oracle == nil {
		return nil
	}
	for _, c := range [...]*cache.Cache{v.d.L2, v.d.LLC} {
		err := c.VisitTLBEntries(func(line, frame mem.Addr) error {
			va := (line &^ tlbLineBit) << mem.PageBits
			want, err := v.d.Oracle(va)
			if err != nil {
				return fmt.Errorf("victima: TLB block %#x in %s: oracle walk failed: %w", line, c.Name(), err)
			}
			if mem.PageBase(want) != frame {
				return fmt.Errorf("victima: TLB block %#x in %s holds frame %#x, oracle says %#x",
					line, c.Name(), frame, mem.PageBase(want))
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
