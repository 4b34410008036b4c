package core

import (
	"errors"
	"sort"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/wire"
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
//	"vVO2" magic
//	u32 nBlocks, then per block:
//	  u32 height, u8 tag (0 = skip, 1 = tree)
//	  skip: u32 distance, cite, digest, 32B prevHash,
//	        u16 nSiblings, then (u32 distance, 32B hash)… ascending
//	  tree: node (recursive):
//	    u8 kind
//	    result:   object, u8 hasDigest, [digest]
//	    mismatch: digest, 32B preHash, cite
//	    expand:   u8 hasDigest, [digest], left, right
//	u16 nGroups, then per group: clause, proof
//
//	cite    = u8 0, u16 group | u8 1, clause, proof
//	clause  = u16 n, then per element u16 len + bytes
//	object  = u64 id, u64 ts, u16 nV, u64…, u16 nW, (u16 len + bytes)…
//	digest  = u16 len + AccBytes; proof = u16 len + ProofBytes
var (
	voMagic = [4]byte{'v', 'V', 'O', '2'}

	// ErrVODecode wraps every malformed-encoding failure.
	ErrVODecode = errors.New("core: malformed VO encoding")
)

// maxTreeDepth bounds the recursive tree codecs of VOs and records; an
// honest intra-block tree over n objects is ⌈log₂(n)⌉ deep, so 64
// levels accommodate any block while keeping adversarial inputs from
// exhausting the stack.
const maxTreeDepth = 64

// EncodeVO serializes a VO in the canonical wire format.
func EncodeVO(acc accumulator.Codec, vo *VO) []byte {
	e := &voEncoder{acc: acc}
	e.Raw(voMagic[:])
	e.U32(uint32(len(vo.Blocks)))
	for i := range vo.Blocks {
		b := &vo.Blocks[i]
		e.U32(uint32(b.Height))
		switch {
		case b.Skip != nil:
			e.U8(0)
			e.skip(b.Skip)
		case b.Tree != nil:
			e.U8(1)
			e.node(b.Tree)
		default:
			// An empty entry is invalid on the verifier side but must
			// still round-trip (the codec is not the validator); encode
			// it as an empty tree marker.
			e.U8(2)
		}
	}
	e.U16(uint16(len(vo.Groups)))
	for i := range vo.Groups {
		writeClause(&e.Writer, vo.Groups[i].Clause)
		e.Bytes16(acc.ProofBytes(vo.Groups[i].Proof))
	}
	return e.Buf
}

// DecodeVO parses a canonical VO encoding, validating structural
// bounds and curve membership of every group element. The returned VO
// re-encodes to the identical byte string.
func DecodeVO(acc accumulator.Codec, b []byte) (*VO, error) {
	d := &voDecoder{Reader: wire.NewReader(b, ErrVODecode), acc: acc}
	if magic := d.Take(len(voMagic)); magic != nil && string(magic) != string(voMagic[:]) {
		d.Failf("bad magic")
	}
	vo := &VO{}
	// A block costs ≥ 5 bytes: its height and tag.
	if n := d.Count32(5); n > 0 {
		vo.Blocks = make([]BlockVO, n)
	}
	for i := range vo.Blocks {
		b := &vo.Blocks[i]
		b.Height = int(d.U32())
		switch tag := d.U8(); tag {
		case 0:
			b.Skip = d.skip()
		case 1:
			b.Tree = d.node(0)
		case 2: // empty entry
		default:
			d.Failf("unknown block tag %d", tag)
		}
	}
	// A group costs ≥ 4 bytes: its clause and proof lengths.
	if n := d.Count16(4); n > 0 {
		vo.Groups = make([]MismatchGroup, n)
	}
	for i := range vo.Groups {
		vo.Groups[i] = MismatchGroup{Clause: readClause(d.Reader), Proof: d.proof()}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return vo, nil
}

// --- shared element codecs: the VO's, the queries' and the records' ---

// clause = u16 n, then per element u16 len + bytes.
func writeClause(w *wire.Writer, c Clause) {
	w.U16(uint16(len(c)))
	for _, el := range c {
		w.String16(el)
	}
}

func readClause(r *wire.Reader) Clause {
	// Each element costs ≥ 2 bytes (its length frame).
	out := make(Clause, r.Count16(2))
	for i := range out {
		out[i] = r.String16()
	}
	return out
}

func readHash(r *wire.Reader) (h chain.Digest) {
	copy(h[:], r.Take(len(h)))
	return h
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

// object = u64 id, u64 ts, u16 nV, u64…, u16 nW, (u16 len + bytes)…
func writeObject(w *wire.Writer, o *chain.Object) {
	w.U64(uint64(o.ID))
	w.U64(uint64(o.TS))
	w.U16(uint16(len(o.V)))
	for _, v := range o.V {
		w.U64(uint64(v))
	}
	w.U16(uint16(len(o.W)))
	for _, s := range o.W {
		w.String16(s)
	}
}

func readObject(r *wire.Reader) chain.Object {
	o := chain.Object{ID: chain.ObjectID(r.U64()), TS: int64(r.U64())}
	if n := r.Count16(8); n > 0 {
		o.V = make([]int64, n)
	}
	for i := range o.V {
		o.V[i] = int64(r.U64())
	}
	if n := r.Count16(2); n > 0 {
		o.W = make([]string, n)
	}
	for i := range o.W {
		o.W[i] = r.String16()
	}
	return o
}

// --- encoder ---

type voEncoder struct {
	wire.Writer
	acc accumulator.Codec
}

func (e *voEncoder) skip(s *SkipVO) {
	e.U32(uint32(s.Distance))
	e.cite(&s.Cite)
	e.Bytes16(e.acc.AccBytes(s.Digest))
	e.Raw(s.PrevHash[:])
	ds := make([]int, 0, len(s.Siblings))
	for d := range s.Siblings {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	e.U16(uint16(len(ds)))
	for _, d := range ds {
		e.U32(uint32(d))
		h := s.Siblings[d]
		e.Raw(h[:])
	}
}

func (e *voEncoder) node(n *NodeVO) {
	// The codec is not the validator: malformed in-memory shapes (nil
	// objects or children, as a hand-built or tampered VO can carry)
	// must encode without crashing — SizeBytes runs on untrusted VOs
	// before verification. They serialize to encodings the decoder rejects.
	if n == nil {
		e.U8(0xFF)
		return
	}
	e.U8(uint8(n.Kind))
	switch n.Kind {
	case KindResult:
		obj := n.Obj
		if obj == nil {
			obj = &chain.Object{}
		}
		writeObject(&e.Writer, obj)
		e.optDigest(n.HasDigest, n.Digest)
	case KindMismatch:
		e.Bytes16(e.acc.AccBytes(n.Digest))
		e.Raw(n.PreHash[:])
		e.cite(&n.Cite)
	case KindExpand:
		e.optDigest(n.HasDigest, n.Digest)
		e.node(n.Left)
		e.node(n.Right)
	}
}

// cite writes a group citation as its index, any other as inline; a
// proof not yet computed encodes as the zero proof, which the decoder
// rejects.
func (e *voEncoder) cite(c *Cite) {
	if c.Group >= 0 {
		e.U8(0)
		e.U16(uint16(c.Group))
		return
	}
	e.U8(1)
	writeClause(&e.Writer, c.Clause)
	pf := c.Proof
	if pf == nil {
		pf = &accumulator.Proof{}
	}
	e.Bytes16(e.acc.ProofBytes(*pf))
}

func (e *voEncoder) optDigest(has bool, a accumulator.Acc) {
	if !has {
		e.U8(0)
		return
	}
	e.U8(1)
	e.Bytes16(e.acc.AccBytes(a))
}

// --- decoder ---

type voDecoder struct {
	*wire.Reader
	acc accumulator.Codec
}

func (d *voDecoder) digest() accumulator.Acc {
	b := d.Bytes16()
	if d.Err() != nil {
		return accumulator.Acc{}
	}
	a, err := d.acc.AccFromBytes(b)
	if err != nil {
		d.Failf("%v", err)
	}
	return a
}

// optDigest reads the u8 flag and, when it is 1, the digest behind it.
func (d *voDecoder) optDigest() (bool, accumulator.Acc) {
	switch has := d.U8(); has {
	case 1:
		return true, d.digest()
	case 0:
	default:
		d.Failf("bad digest flag %d", has)
	}
	return false, accumulator.Acc{}
}

func (d *voDecoder) proof() accumulator.Proof {
	b := d.Bytes16()
	if d.Err() != nil {
		return accumulator.Proof{}
	}
	p, err := d.acc.ProofFromBytes(b)
	if err != nil {
		d.Failf("%v", err)
	}
	return p
}

func (d *voDecoder) cite() Cite {
	tag := d.U8()
	if tag == 0 {
		return Cite{Group: int(d.U16())}
	}
	if tag != 1 {
		d.Failf("bad citation tag %d", tag)
	}
	c := Cite{Group: -1, Clause: readClause(d.Reader)}
	pf := d.proof()
	c.Proof = &pf
	return c
}

func (d *voDecoder) skip() *SkipVO {
	s := &SkipVO{Distance: int(d.U32()), Cite: d.cite()}
	s.Digest = d.digest()
	s.PrevHash = readHash(d.Reader)
	n := d.Count16(36)
	s.Siblings = make(map[int]chain.Digest, n)
	prev := -1
	for i := 0; i < n; i++ {
		sd := int(d.U32())
		if sd <= prev {
			d.Failf("sibling distances not ascending")
		}
		prev = sd
		s.Siblings[sd] = readHash(d.Reader)
	}
	return s
}

func (d *voDecoder) node(depth int) *NodeVO {
	if depth > maxTreeDepth {
		d.Failf("tree deeper than %d", maxTreeDepth)
	}
	if d.Err() != nil {
		return nil
	}
	kind := d.U8()
	n := &NodeVO{Kind: NodeKind(kind)}
	switch n.Kind {
	case KindResult:
		obj := readObject(d.Reader)
		n.Obj = &obj
		n.HasDigest, n.Digest = d.optDigest()
	case KindMismatch:
		n.HasDigest = true
		n.Digest = d.digest()
		n.PreHash = readHash(d.Reader)
		n.Cite = d.cite()
	case KindExpand:
		n.HasDigest, n.Digest = d.optDigest()
		n.Left = d.node(depth + 1)
		n.Right = d.node(depth + 1)
	default:
		d.Failf("unknown node kind %d", kind)
	}
	return n
}
