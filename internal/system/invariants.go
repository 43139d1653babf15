package system

import "fmt"

// checkStride is how many instructions elapse between periodic invariant
// audits. Audits scan every set of every cache, so they are far too
// expensive per instruction; a stride catches corruption within a bounded
// window while keeping validated runs usable.
const checkStride = 8192

// auditInvariants walks every model and panics on the first violated
// invariant. Called periodically from the phase loop and once at the end of
// the run when invariant checking is enabled.
func (s *sim) auditInvariants() {
	fail := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("atcsim: invariant violation: %v", err))
		}
	}
	for _, c := range s.cores {
		fail(c.mmu.CheckInvariants())
	}
	for _, ca := range s.privateCaches() {
		fail(ca.CheckInvariants())
	}
	fail(s.llc.CheckInvariants())
	fail(s.channel.CheckInvariants())
	for _, q := range s.queued {
		fail(q.CheckInvariants())
	}
}
