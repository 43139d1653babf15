package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"atcsim/internal/mem"
)

// Binary trace format: traces synthesized once can be saved and replayed
// across processes (the ChampSim workflow of shipping trace files). The
// format is a fixed header followed by fixed-width little-endian records —
// simple, versioned and fast to stream.
//
//	magic   [8]byte  "ATCTRC01"
//	nameLen uint32, name [nameLen]byte
//	count   uint64
//	records: ip uint64, addr uint64, op uint8, flags uint8 (bit0 taken, bit1 dep)
//	        ×count
//
// The record keeps 8 bytes for ip, but Inst holds a 32-bit IP: Read rejects
// a record whose ip is at or above 4 GiB instead of truncating it.

var traceMagic = [8]byte{'A', 'T', 'C', 'T', 'R', 'C', '0', '1'}

const recordBytes = 8 + 8 + 1 + 1

// Write serializes the trace.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return err
	}
	name := []byte(t.Name)
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(name))); err != nil {
		return err
	}
	if _, err := bw.Write(name); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(t.Insts))); err != nil {
		return err
	}
	var rec [recordBytes]byte
	for i := range t.Insts {
		in := &t.Insts[i]
		binary.LittleEndian.PutUint64(rec[0:], uint64(in.IP))
		binary.LittleEndian.PutUint64(rec[8:], uint64(in.Addr))
		rec[16] = byte(in.Op)
		var flags byte
		if in.Taken {
			flags |= 1
		}
		if in.Dep {
			flags |= 2
		}
		rec[17] = flags
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserializes a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic[:])
	}
	var nameLen uint32
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return nil, err
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	if count > 1<<32 {
		return nil, fmt.Errorf("trace: implausible instruction count %d", count)
	}
	// Grow incrementally rather than trusting the header's count with one
	// huge allocation: a crafted header must supply the bytes to match.
	initial := count
	if initial > 1<<20 {
		initial = 1 << 20
	}
	t := &Trace{Name: string(name), Insts: make([]Inst, 0, initial)}
	var rec [recordBytes]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		t.Insts = append(t.Insts, Inst{})
		in := &t.Insts[len(t.Insts)-1]
		ip := binary.LittleEndian.Uint64(rec[0:])
		if ip > math.MaxUint32 {
			return nil, fmt.Errorf("trace: record %d: ip %#x is not below 4 GiB", i, ip)
		}
		in.IP = uint32(ip)
		in.Addr = mem.Addr(binary.LittleEndian.Uint64(rec[8:]))
		op := OpClass(rec[16])
		if op > OpBranch {
			return nil, fmt.Errorf("trace: record %d: bad opcode %d", i, op)
		}
		in.Op = op
		in.Taken = rec[17]&1 != 0
		in.Dep = rec[17]&2 != 0
	}
	return t, nil
}
