package lp

import (
	"encoding/binary"
	"fmt"
)

// Basis serialization: a compact self-describing binary form so optimal
// bases can leave the process — persisted alongside a result cache, evicted
// to disk, or shipped to a distributed solver backend — and later rehydrated
// as a Solver.Solve warm start. The format is versioned ("LPB1") and fully validated
// on decode; a decoded basis is exactly as trustworthy as a fresh export,
// because the solver refactorizes any warm basis against the actual problem
// data and falls back to a cold solve when it does not carry over.
//
// Layout (all integers unsigned varints):
//
//	"LPB1" | nv | ns | na | m | cols[0..m)
var basisMagic = []byte("LPB1")

// MarshalBinary implements encoding.BinaryMarshaler.
func (b *Basis) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, len(basisMagic)+binary.MaxVarintLen64*(4+len(b.cols)))
	buf = append(buf, basisMagic...)
	for _, v := range []int{b.nv, b.ns, b.na, len(b.cols)} {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	for _, c := range b.cols {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It rejects
// malformed input: bad magic, truncation, trailing bytes, out-of-range or
// duplicate basic columns — everything except semantic staleness, which only
// a solve against the owning problem can detect (and survives, by falling
// back to a cold solve).
func (b *Basis) UnmarshalBinary(data []byte) error {
	if len(data) < len(basisMagic) || string(data[:len(basisMagic)]) != string(basisMagic) {
		return fmt.Errorf("lp: basis decode: bad magic")
	}
	data = data[len(basisMagic):]
	next := func(field string) (int, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("lp: basis decode: truncated %s", field)
		}
		data = data[n:]
		if v >= 1<<31 {
			return 0, fmt.Errorf("lp: basis decode: %s %d out of range", field, v)
		}
		return int(v), nil
	}
	var nv, ns, na, m int
	var err error
	if nv, err = next("nv"); err != nil {
		return err
	}
	if ns, err = next("ns"); err != nil {
		return err
	}
	if na, err = next("na"); err != nil {
		return err
	}
	if m, err = next("m"); err != nil {
		return err
	}
	nTot := nv + ns + na
	// Each remaining column costs at least one byte, so m is bounded by the
	// unread input; checking before allocating keeps a corrupt or hostile
	// header from forcing a multi-GiB allocation.
	if m > len(data) {
		return fmt.Errorf("lp: basis decode: %d columns but only %d bytes remain", m, len(data))
	}
	cols := make([]int, m)
	seen := make(map[int]bool, m)
	for i := range cols {
		c, err := next("column")
		if err != nil {
			return err
		}
		if c >= nTot {
			return fmt.Errorf("lp: basis decode: column %d outside [0,%d)", c, nTot)
		}
		if seen[c] {
			return fmt.Errorf("lp: basis decode: duplicate basic column %d", c)
		}
		seen[c] = true
		cols[i] = c
	}
	if len(data) != 0 {
		return fmt.Errorf("lp: basis decode: %d trailing bytes", len(data))
	}
	b.cols, b.nv, b.ns, b.na = cols, nv, ns, na
	return nil
}
