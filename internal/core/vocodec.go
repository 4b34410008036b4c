package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
)

// VO wire codec: a deterministic, versioned binary encoding of
// verification objects. It is byte-stable across runs and releases,
// which is what the golden-vector regression tests pin, what the fuzz
// targets drive, and what the service protocol ships: every VO in a
// service frame is exactly these bytes. All integers are big-endian;
// group elements use the accumulator's AccBytes/ProofBytes encodings
// behind 16-bit length frames; every accepted input round-trips to the
// identical byte string.
//
// Layout:
//
//	"vVO1" magic
//	u32 nBlocks, then per block:
//	  u32 height, u8 tag (0 = skip, 1 = tree)
//	  skip: u32 distance, clause, proof, digest, 32B prevHash,
//	        u16 nSiblings, then (u32 distance, 32B hash)… ascending
//	  tree: node (recursive):
//	    u8 kind
//	    result:   object, u8 hasDigest, [digest]
//	    mismatch: digest, 32B preHash, clause, u8 hasProof,
//	              proof | i32 group
//	    expand:   u8 hasDigest, [digest], left, right
//	u16 nGroups, then per group: clause, proof
//
//	clause  = u16 n, then per element u16 len + bytes
//	object  = u64 id, u64 ts, u16 nV, u64…, u16 nW, (u16 len + bytes)…
//	digest  = u16 len + AccBytes; proof = u16 len + ProofBytes
var (
	voMagic = [4]byte{'v', 'V', 'O', '1'}

	// ErrVODecode wraps every malformed-encoding failure.
	ErrVODecode = errors.New("core: malformed VO encoding")
)

// voMaxTreeDepth bounds the recursive node decoder; an honest
// intra-block tree over n objects is ~log₂(n) deep, so 64 levels
// accommodate any realistic block while keeping adversarial inputs
// from exhausting the stack.
const voMaxTreeDepth = 64

// EncodeVO serializes a VO in the canonical wire format.
func EncodeVO(acc accumulator.Codec, vo *VO) []byte {
	e := &voEncoder{acc: acc}
	e.bytes(voMagic[:])
	e.u32(uint32(len(vo.Blocks)))
	for i := range vo.Blocks {
		b := &vo.Blocks[i]
		e.u32(uint32(b.Height))
		switch {
		case b.Skip != nil:
			e.u8(0)
			e.skip(b.Skip)
		case b.Tree != nil:
			e.u8(1)
			e.node(b.Tree)
		default:
			// An empty entry is invalid on the verifier side but must
			// still round-trip (the codec is not the validator); encode
			// it as an empty tree marker.
			e.u8(2)
		}
	}
	e.u16(uint16(len(vo.Groups)))
	for i := range vo.Groups {
		e.clause(vo.Groups[i].Clause)
		e.frame(acc.ProofBytes(vo.Groups[i].Proof))
	}
	return e.buf
}

// DecodeVO parses a canonical VO encoding, validating structural
// bounds and curve membership of every group element. The returned VO
// re-encodes to the identical byte string.
func DecodeVO(acc accumulator.Codec, b []byte) (*VO, error) {
	d := &voDecoder{acc: acc, buf: b}
	magic, err := d.take(4)
	if err != nil {
		return nil, err
	}
	if string(magic) != string(voMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrVODecode)
	}
	nBlocks, err := d.u32()
	if err != nil {
		return nil, err
	}
	// Each block costs ≥ 5 bytes on the wire; a forged count cannot
	// force a larger allocation than the input affords.
	if int(nBlocks) > len(d.buf)/5+1 {
		return nil, fmt.Errorf("%w: block count %d exceeds input", ErrVODecode, nBlocks)
	}
	vo := &VO{}
	if nBlocks > 0 {
		vo.Blocks = make([]BlockVO, 0, nBlocks)
	}
	for i := 0; i < int(nBlocks); i++ {
		h, err := d.u32()
		if err != nil {
			return nil, err
		}
		tag, err := d.u8()
		if err != nil {
			return nil, err
		}
		bvo := BlockVO{Height: int(h)}
		switch tag {
		case 0:
			if bvo.Skip, err = d.skip(); err != nil {
				return nil, err
			}
		case 1:
			if bvo.Tree, err = d.node(0); err != nil {
				return nil, err
			}
		case 2: // empty entry
		default:
			return nil, fmt.Errorf("%w: unknown block tag %d", ErrVODecode, tag)
		}
		vo.Blocks = append(vo.Blocks, bvo)
	}
	nGroups, err := d.u16()
	if err != nil {
		return nil, err
	}
	if int(nGroups) > len(d.buf)/3+1 {
		return nil, fmt.Errorf("%w: group count %d exceeds input", ErrVODecode, nGroups)
	}
	if nGroups > 0 {
		vo.Groups = make([]MismatchGroup, 0, nGroups)
	}
	for i := 0; i < int(nGroups); i++ {
		cl, err := d.clause()
		if err != nil {
			return nil, err
		}
		pf, err := d.proof()
		if err != nil {
			return nil, err
		}
		vo.Groups = append(vo.Groups, MismatchGroup{Clause: cl, Proof: pf})
	}
	if len(d.buf) != d.off {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrVODecode, len(d.buf)-d.off)
	}
	return vo, nil
}

// --- encoder ---

type voEncoder struct {
	acc accumulator.Codec
	buf []byte
}

func (e *voEncoder) u8(v uint8)     { e.buf = append(e.buf, v) }
func (e *voEncoder) bytes(b []byte) { e.buf = append(e.buf, b...) }
func (e *voEncoder) u16(v uint16)   { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *voEncoder) u32(v uint32)   { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *voEncoder) u64(v uint64)   { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *voEncoder) frame(b []byte) { e.u16(uint16(len(b))); e.bytes(b) }
func (e *voEncoder) str(s string)   { e.u16(uint16(len(s))); e.bytes([]byte(s)) }

func (e *voEncoder) clause(c Clause) {
	e.u16(uint16(len(c)))
	for _, el := range c {
		e.str(el)
	}
}

// encodedObjectSize is the wire size of one result object — what
// VO.SizeBytes deducts as result payload rather than VO overhead.
func encodedObjectSize(o *chain.Object) int {
	n := 8 + 8 + 2 + 8*len(o.V) + 2
	for _, w := range o.W {
		n += 2 + len(w)
	}
	return n
}

func (e *voEncoder) object(o *chain.Object) {
	e.u64(uint64(o.ID))
	e.u64(uint64(o.TS))
	e.u16(uint16(len(o.V)))
	for _, v := range o.V {
		e.u64(uint64(v))
	}
	e.u16(uint16(len(o.W)))
	for _, w := range o.W {
		e.str(w)
	}
}

func (e *voEncoder) skip(s *SkipVO) {
	e.u32(uint32(s.Distance))
	e.clause(s.Clause)
	e.frame(e.acc.ProofBytes(s.Proof))
	e.frame(e.acc.AccBytes(s.Digest))
	e.bytes(s.PrevHash[:])
	ds := make([]int, 0, len(s.Siblings))
	for d := range s.Siblings {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	e.u16(uint16(len(ds)))
	for _, d := range ds {
		e.u32(uint32(d))
		h := s.Siblings[d]
		e.bytes(h[:])
	}
}

func (e *voEncoder) node(n *NodeVO) {
	// The codec is not the validator: malformed in-memory shapes (nil
	// objects or children, as a hand-built or tampered VO can carry)
	// must encode without crashing — SizeBytes runs on untrusted VOs
	// before verification. They serialize to encodings the decoder rejects.
	if n == nil {
		e.u8(0xFF)
		return
	}
	e.u8(uint8(n.Kind))
	switch n.Kind {
	case KindResult:
		obj := n.Obj
		if obj == nil {
			obj = &chain.Object{}
		}
		e.object(obj)
		if n.HasDigest {
			e.u8(1)
			e.frame(e.acc.AccBytes(n.Digest))
		} else {
			e.u8(0)
		}
	case KindMismatch:
		e.frame(e.acc.AccBytes(n.Digest))
		e.bytes(n.PreHash[:])
		e.clause(n.Clause)
		if n.Proof != nil {
			e.u8(1)
			e.frame(e.acc.ProofBytes(*n.Proof))
		} else {
			e.u8(0)
			e.u32(uint32(int32(n.Group)))
		}
	case KindExpand:
		if n.HasDigest {
			e.u8(1)
			e.frame(e.acc.AccBytes(n.Digest))
		} else {
			e.u8(0)
		}
		e.node(n.Left)
		e.node(n.Right)
	}
}

// --- decoder ---

type voDecoder struct {
	acc accumulator.Codec
	buf []byte
	off int
	// bad is the sentinel failures wrap: ErrVODecode when nil.
	bad error
}

func (d *voDecoder) malformed() error {
	if d.bad != nil {
		return d.bad
	}
	return ErrVODecode
}

func (d *voDecoder) take(n int) ([]byte, error) {
	if n < 0 || len(d.buf)-d.off < n {
		return nil, fmt.Errorf("%w: truncated", d.malformed())
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *voDecoder) u8() (uint8, error) {
	b, err := d.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *voDecoder) u16() (uint16, error) {
	b, err := d.take(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (d *voDecoder) u32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (d *voDecoder) u64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (d *voDecoder) frame() ([]byte, error) {
	n, err := d.u16()
	if err != nil {
		return nil, err
	}
	return d.take(int(n))
}

func (d *voDecoder) str() (string, error) {
	b, err := d.frame()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (d *voDecoder) digest() (accumulator.Acc, error) {
	b, err := d.frame()
	if err != nil {
		return accumulator.Acc{}, err
	}
	a, err := d.acc.AccFromBytes(b)
	if err != nil {
		return accumulator.Acc{}, fmt.Errorf("%w: %v", d.malformed(), err)
	}
	return a, nil
}

func (d *voDecoder) proof() (accumulator.Proof, error) {
	b, err := d.frame()
	if err != nil {
		return accumulator.Proof{}, err
	}
	p, err := d.acc.ProofFromBytes(b)
	if err != nil {
		return accumulator.Proof{}, fmt.Errorf("%w: %v", d.malformed(), err)
	}
	return p, nil
}

func (d *voDecoder) hash() (chain.Digest, error) {
	var h chain.Digest
	b, err := d.take(len(h))
	if err != nil {
		return h, err
	}
	copy(h[:], b)
	return h, nil
}

func (d *voDecoder) clause() (Clause, error) {
	n, err := d.u16()
	if err != nil {
		return nil, err
	}
	// Each element costs ≥ 2 bytes (its length frame).
	if int(n) > (len(d.buf)-d.off)/2+1 {
		return nil, fmt.Errorf("%w: clause size %d exceeds input", d.malformed(), n)
	}
	out := make(Clause, 0, n)
	for i := 0; i < int(n); i++ {
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (d *voDecoder) object() (*chain.Object, error) {
	id, err := d.u64()
	if err != nil {
		return nil, err
	}
	ts, err := d.u64()
	if err != nil {
		return nil, err
	}
	nv, err := d.u16()
	if err != nil {
		return nil, err
	}
	if int(nv) > (len(d.buf)-d.off)/8+1 {
		return nil, fmt.Errorf("%w: numeric vector %d exceeds input", d.malformed(), nv)
	}
	o := &chain.Object{ID: chain.ObjectID(id), TS: int64(ts)}
	if nv > 0 {
		o.V = make([]int64, 0, nv)
	}
	for i := 0; i < int(nv); i++ {
		v, err := d.u64()
		if err != nil {
			return nil, err
		}
		o.V = append(o.V, int64(v))
	}
	nw, err := d.u16()
	if err != nil {
		return nil, err
	}
	if int(nw) > (len(d.buf)-d.off)/2+1 {
		return nil, fmt.Errorf("%w: keyword set %d exceeds input", d.malformed(), nw)
	}
	if nw > 0 {
		o.W = make([]string, 0, nw)
	}
	for i := 0; i < int(nw); i++ {
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		o.W = append(o.W, s)
	}
	return o, nil
}

func (d *voDecoder) skip() (*SkipVO, error) {
	dist, err := d.u32()
	if err != nil {
		return nil, err
	}
	s := &SkipVO{Distance: int(dist)}
	if s.Clause, err = d.clause(); err != nil {
		return nil, err
	}
	if s.Proof, err = d.proof(); err != nil {
		return nil, err
	}
	if s.Digest, err = d.digest(); err != nil {
		return nil, err
	}
	if s.PrevHash, err = d.hash(); err != nil {
		return nil, err
	}
	n, err := d.u16()
	if err != nil {
		return nil, err
	}
	if int(n) > (len(d.buf)-d.off)/36+1 {
		return nil, fmt.Errorf("%w: sibling count %d exceeds input", d.malformed(), n)
	}
	s.Siblings = make(map[int]chain.Digest, n)
	prev := -1
	for i := 0; i < int(n); i++ {
		sd, err := d.u32()
		if err != nil {
			return nil, err
		}
		if int(sd) <= prev {
			return nil, fmt.Errorf("%w: sibling distances not ascending", d.malformed())
		}
		prev = int(sd)
		h, err := d.hash()
		if err != nil {
			return nil, err
		}
		s.Siblings[int(sd)] = h
	}
	return s, nil
}

func (d *voDecoder) node(depth int) (*NodeVO, error) {
	if depth > voMaxTreeDepth {
		return nil, fmt.Errorf("%w: tree deeper than %d", d.malformed(), voMaxTreeDepth)
	}
	kind, err := d.u8()
	if err != nil {
		return nil, err
	}
	n := &NodeVO{Kind: NodeKind(kind), Group: -1}
	switch n.Kind {
	case KindResult:
		if n.Obj, err = d.object(); err != nil {
			return nil, err
		}
		has, err := d.u8()
		if err != nil {
			return nil, err
		}
		if has == 1 {
			n.HasDigest = true
			if n.Digest, err = d.digest(); err != nil {
				return nil, err
			}
		} else if has != 0 {
			return nil, fmt.Errorf("%w: bad digest flag %d", d.malformed(), has)
		}
	case KindMismatch:
		n.HasDigest = true
		if n.Digest, err = d.digest(); err != nil {
			return nil, err
		}
		if n.PreHash, err = d.hash(); err != nil {
			return nil, err
		}
		if n.Clause, err = d.clause(); err != nil {
			return nil, err
		}
		has, err := d.u8()
		if err != nil {
			return nil, err
		}
		switch has {
		case 1:
			pf, err := d.proof()
			if err != nil {
				return nil, err
			}
			n.Proof = &pf
		case 0:
			g, err := d.u32()
			if err != nil {
				return nil, err
			}
			n.Group = int(int32(g))
		default:
			return nil, fmt.Errorf("%w: bad proof flag %d", d.malformed(), has)
		}
	case KindExpand:
		has, err := d.u8()
		if err != nil {
			return nil, err
		}
		if has == 1 {
			n.HasDigest = true
			if n.Digest, err = d.digest(); err != nil {
				return nil, err
			}
		} else if has != 0 {
			return nil, fmt.Errorf("%w: bad digest flag %d", d.malformed(), has)
		}
		if n.Left, err = d.node(depth + 1); err != nil {
			return nil, err
		}
		if n.Right, err = d.node(depth + 1); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: unknown node kind %d", d.malformed(), kind)
	}
	return n, nil
}
