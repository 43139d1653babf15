package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"syscall"
	"time"

	"atcsim/internal/trace"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks, leaving xs unmodified. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when den is 0 (a layer that did not run).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMiB is the process's maximum resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// digest returns the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// tracesDigest fingerprints synthesized inputs instruction by instruction,
// so two set-ups can be compared without keeping both trace sets alive.
func tracesDigest(traces []*trace.Trace) string {
	h := sha256.New()
	var buf [8 + 8 + 3]byte
	for _, tr := range traces {
		h.Write([]byte(tr.Name))
		for i := range tr.Insts {
			in := &tr.Insts[i]
			binary.LittleEndian.PutUint64(buf[0:], uint64(in.IP))
			binary.LittleEndian.PutUint64(buf[8:], uint64(in.Addr))
			buf[16] = byte(in.Op)
			buf[17] = boolByte(in.Taken)
			buf[18] = boolByte(in.Dep)
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
