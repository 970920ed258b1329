package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/mat"
)

// Canonical serialization: a deterministic, parameter-complete byte encoding
// of model parameters, defined so that two systems are byte-identical
// exactly when they describe the same optimization inputs. It exists for
// content addressing — a resident policy server keys compiled models and
// cached solver state by SHA-256 of this form — not for persistence, so the
// encoding favors unambiguity over compactness: every field is tagged,
// floats use the shortest round-trip decimal (strconv 'g'/-1, one spelling
// per value), and every list is length-prefixed.

// cw accumulates canonical bytes in a buffer and hands them to an io.Writer
// in writes of about cwFlush bytes, capturing the first write error so call
// sites stay linear. Numbers are appended with strconv, never through fmt:
// a posted model's matrices can carry millions of entries, and per-entry
// formatting dominated fingerprinting them. Every WriteCanonical ends with
// flush, and flushes before handing the writer to a nested WriteCanonical,
// so the bytes reach w in serialization order.
type cw struct {
	w   io.Writer
	buf []byte
	num []byte // scratch for one formatted value
	err error
}

// cwFlush is the buffered byte count at which cw writes through.
const cwFlush = 32 << 10

// appendField appends one tagged field, tag=len(v):v;, to dst.
func appendField(dst []byte, tag string, v []byte) []byte {
	dst = append(dst, tag...)
	dst = append(dst, '=')
	dst = strconv.AppendInt(dst, int64(len(v)), 10)
	dst = append(dst, ':')
	dst = append(dst, v...)
	return append(dst, ';')
}

func (c *cw) field(tag string, v []byte) {
	c.buf = appendField(c.buf, tag, v)
	if len(c.buf) >= cwFlush {
		c.flush()
	}
}

func (c *cw) str(tag, s string) {
	c.num = append(c.num[:0], s...)
	c.field(tag, c.num)
}

func (c *cw) count(tag string, n int) {
	c.num = strconv.AppendInt(c.num[:0], int64(n), 10)
	c.field(tag, c.num)
}

func (c *cw) matrix(tag string, m *mat.Matrix) {
	if m == nil {
		c.str(tag, "nil")
		return
	}
	c.num = strconv.AppendInt(c.num[:0], int64(m.Rows), 10)
	c.num = append(c.num, 'x')
	c.num = strconv.AppendInt(c.num, int64(m.Cols), 10)
	c.field(tag, c.num)
	// Matrices repeat values in runs (zeros, uniform rows), so the encoded
	// field of the previous entry is reused while the bits match.
	var last []byte
	var lastBits uint64
	for _, v := range m.Data {
		if b := math.Float64bits(v); last == nil || b != lastBits {
			c.num = strconv.AppendFloat(c.num[:0], v, 'g', -1, 64)
			last, lastBits = appendField(last[:0], "v", c.num), b
		}
		c.buf = append(c.buf, last...)
		if len(c.buf) >= cwFlush {
			c.flush()
		}
	}
}

// flush writes the buffered bytes through and returns the first write
// error; after an error nothing more is written.
func (c *cw) flush() error {
	if c.err == nil && len(c.buf) > 0 {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
	return c.err
}

// WriteCanonical writes the provider's canonical serialization: name, state
// and command vocabularies, all transition matrices, service rates and
// powers.
func (sp *ServiceProvider) WriteCanonical(w io.Writer) error {
	c := &cw{w: w}
	c.str("sp", sp.Name)
	c.count("states", len(sp.States))
	for _, s := range sp.States {
		c.str("s", s)
	}
	c.count("cmds", len(sp.Commands))
	for _, s := range sp.Commands {
		c.str("c", s)
	}
	c.count("P", len(sp.P))
	for _, p := range sp.P {
		c.matrix("p", p)
	}
	c.matrix("rate", sp.ServiceRate)
	c.matrix("power", sp.Power)
	return c.flush()
}

// WriteCanonical writes the requester's canonical serialization: name,
// state vocabulary, transition matrix and request counts.
func (sr *ServiceRequester) WriteCanonical(w io.Writer) error {
	c := &cw{w: w}
	c.str("sr", sr.Name)
	c.count("states", len(sr.States))
	for _, s := range sr.States {
		c.str("s", s)
	}
	c.matrix("p", sr.P)
	c.count("reqs", len(sr.Requests))
	for _, r := range sr.Requests {
		c.count("r", r)
	}
	return c.flush()
}

// hooked reports whether any behavioral hook is set.
func (sys *System) hooked() bool {
	return sys.SPRow != nil || sys.PenaltyFn != nil || sys.LossFn != nil || len(sys.ExtraMetrics) > 0
}

// WriteCanonical writes the system's canonical serialization: both
// components, the queue capacity, and the HookTag standing in for any
// behavioral hooks. It fails on a hooked system without a HookTag — the
// closures are not serializable, and fingerprinting them away silently
// would let two behaviorally different systems collide.
func (sys *System) WriteCanonical(w io.Writer) error {
	if sys.hooked() && sys.HookTag == "" {
		return fmt.Errorf("core: system %q has behavioral hooks but no HookTag; set one to make it fingerprintable", sys.Name)
	}
	c := &cw{w: w}
	c.str("sys", sys.Name)
	c.count("queue", sys.QueueCap)
	c.str("hooks", sys.HookTag)
	if err := c.flush(); err != nil {
		return err
	}
	if err := sys.SP.WriteCanonical(w); err != nil {
		return err
	}
	return sys.SR.WriteCanonical(w)
}

// Fingerprint returns the SHA-256 content fingerprint (hex) of the system's
// canonical serialization. Two systems with equal fingerprints compile to
// identical models (same chains, same metric tables up to what HookTag
// promises), which is what lets a server share compiled models and cached
// solver state across requests.
func (sys *System) Fingerprint() (string, error) {
	h := sha256.New()
	if err := sys.WriteCanonical(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
