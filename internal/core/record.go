package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/vchain-go/vchain/internal/accumulator"
	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/crypto/ec"
	"github.com/vchain-go/vchain/internal/crypto/ff"
	"github.com/vchain-go/vchain/internal/multiset"
	"github.com/vchain-go/vchain/internal/wire"
)

// Chain record codec: one (block, ADS) pair as every slot of every
// node persists it, on the cursor of internal/wire. The objects are
// stored once: the index leaves name them by their position in the
// block. No node hash is stored; VerifyADSCommitments derives them
// from the objects and digests and compares the roots with the header,
// so a decoded ADS is unusable until it has run. Field elements are
// stored as their Montgomery limbs, which the codec can write and read
// without the accumulator. Every accepted record re-encodes to the
// identical bytes.
//
// Layout (format VCR6):
//
//	"\x00VCR6"
//	header   chain.Header.Bytes()
//	u32 n, n × object                     (vocodec's object form)
//	i64 width
//	tree     preorder; node = u8 tag (0 = leaf, 1 = internal, +2 = has
//	         a digest), then leaf: u32 object index, [digest];
//	         internal: [digest], left, right
//	u16 n, n × (u32 distance, 32B prevHash, digest)   the skip entries
//	u32 n, n × (u16 len + element, u32 multiplicity)  BlockW, ascending
//
//	digest = point A, point B
//	point  = u8 (0 = zero value, 1 = infinity, 2 = affine), [elt X, elt Y]
//	elt    = u8 n, n × u64 limbs, least significant first, the top one
//	         nonzero
//
// The leaves name every object exactly once, each the first object not
// named yet that equals its own, so identical objects are
// interchangeable and the naming is canonical.

// recMagic prefixes a chain record of format VCR6.
var recMagic = []byte{0x00, 'V', 'C', 'R', '6'}

// oldRecMagics prefix records of the formats before VCR6, each a gob
// encoding: VCR2, whose field elements meant canonical integers, VCR3,
// which also stored every internal intra-index node's multiset, VCR4,
// which stored every leaf's, and VCR5, which stored the objects twice
// and every node hash. All are refused outright; builds that predate
// VCR6 refuse its records as malformed.
var oldRecMagics = [][]byte{
	{0x00, 'V', 'C', 'R', '2'}, {0x00, 'V', 'C', 'R', '3'},
	{0x00, 'V', 'C', 'R', '4'}, {0x00, 'V', 'C', 'R', '5'},
}

// ErrOldRecordFormat marks a store written in record format VCR2 to
// VCR5 by an older build. It cannot be read; re-mine the chain into a
// new store.
var ErrOldRecordFormat = errors.New("core: chain record in format VCR2, VCR3, VCR4 or VCR5, which this build cannot read; re-mine the chain into a new store")

// errMalformedRecord wraps every record that does not decode.
var errMalformedRecord = errors.New("core: malformed chain record")

// Tree node tags.
const (
	recInternal  byte = 1
	recHasDigest byte = 2
)

// EncodeChainRecord renders a (block, ADS) pair as one record. It fails
// if a leaf's object is not one of the block's objects, or an object is
// no leaf, or a count or string does not fit its frame.
func EncodeChainRecord(blk *chain.Block, ads *BlockADS) ([]byte, error) {
	if ads == nil || ads.Root == nil {
		return nil, fmt.Errorf("core: encoding chain record: no ADS")
	}
	e := &recEncoder{objs: blk.Objects, named: make([]bool, len(blk.Objects))}
	e.Raw(recMagic)
	e.Raw(blk.Header.Bytes())
	e.U32(uint32(len(blk.Objects)))
	for i := range blk.Objects {
		o := &blk.Objects[i]
		if !fits16(len(o.V)) || !fits16(len(o.W)) || slices.ContainsFunc(o.W, func(w string) bool { return !fits16(len(w)) }) {
			return nil, fmt.Errorf("core: encoding chain record: object %d exceeds the object form's u16 frames", i)
		}
		writeObject(&e.Writer, o)
	}
	e.Int(ads.Width)
	if err := e.node(ads.Root); err != nil {
		return nil, fmt.Errorf("core: encoding chain record: %w", err)
	}
	if k := slices.Index(e.named, false); k >= 0 {
		return nil, fmt.Errorf("core: encoding chain record: block object %d is no leaf of its ADS", k)
	}
	e.U16(uint16(len(ads.Skips)))
	for i := range ads.Skips {
		s := &ads.Skips[i]
		e.U32(uint32(s.Distance))
		e.Raw(s.PrevHash[:])
		e.digest(s.Digest)
	}
	blockW := ads.BlockW()
	e.U32(uint32(len(blockW)))
	for _, el := range blockW {
		if !fits16(len(el.Elem)) || el.Count < 1 || uint64(el.Count) > math.MaxUint32 {
			return nil, fmt.Errorf("core: encoding chain record: BlockW element %q×%d does not fit the record", el.Elem, el.Count)
		}
		e.String16(el.Elem)
		e.U32(uint32(el.Count))
	}
	return e.Buf, nil
}

func fits16(n int) bool { return n <= math.MaxUint16 }

type recEncoder struct {
	wire.Writer
	objs  []chain.Object
	named []bool // the objects a leaf names so far
}

func (e *recEncoder) node(n *IntraNode) error {
	tag := byte(0)
	if !n.IsLeaf() {
		if n.Left == nil || n.Right == nil {
			return fmt.Errorf("internal index node without two children")
		}
		tag = recInternal
	}
	if n.HasDigest {
		tag |= recHasDigest
	}
	e.U8(tag)
	if n.IsLeaf() {
		k := firstUnnamed(e.objs, e.named, n.Obj)
		if k < 0 {
			return fmt.Errorf("a leaf's object is not one of the block's objects")
		}
		e.named[k] = true
		e.U32(uint32(k))
	}
	if n.HasDigest {
		e.digest(n.Digest)
	}
	if n.IsLeaf() {
		return nil
	}
	if err := e.node(n.Left); err != nil {
		return err
	}
	return e.node(n.Right)
}

// firstUnnamed returns the index of the first object equal to o that
// no leaf names yet, or −1.
func firstUnnamed(objs []chain.Object, named []bool, o *chain.Object) int {
	for k := range objs {
		if !named[k] && sameObject(&objs[k], o) {
			return k
		}
	}
	return -1
}

// sameObject reports whether a and b have the same encoding.
func sameObject(a, b *chain.Object) bool {
	return a.ID == b.ID && a.TS == b.TS && slices.Equal(a.V, b.V) && slices.Equal(a.W, b.W)
}

func (e *recEncoder) digest(a accumulator.Acc) {
	e.point(a.A)
	e.point(a.B)
}

func (e *recEncoder) point(p ec.Point) {
	switch {
	case p.Inf:
		e.U8(1)
	case p == ec.Point{}:
		e.U8(0)
	default:
		e.U8(2)
		e.elt(p.X)
		e.elt(p.Y)
	}
}

func (e *recEncoder) elt(x ff.Elt) {
	l := x.Limbs()
	n := len(l)
	for n > 0 && l[n-1] == 0 {
		n--
	}
	e.U8(uint8(n))
	for _, v := range l[:n] {
		e.U64(v)
	}
}

// openRecord checks a record's magic and decodes its block: the
// header and the objects. The reader it returns stands at the ADS.
func openRecord(data []byte) (*wire.Reader, *chain.Block, error) {
	for _, old := range oldRecMagics {
		if bytes.HasPrefix(data, old) {
			return nil, nil, ErrOldRecordFormat
		}
	}
	r := wire.NewReader(data, errMalformedRecord)
	if magic := r.Take(len(recMagic)); magic != nil && !bytes.Equal(magic, recMagic) {
		r.Failf("bad magic")
	}
	blk := &chain.Block{}
	blk.Header, _ = chain.HeaderFromBytes(r.Take(chain.HeaderSize))
	// An object costs ≥ 20 bytes: its id, timestamp and two counts.
	if n := r.Count32(20); n > 0 {
		blk.Objects = make([]chain.Object, n)
	}
	for i := range blk.Objects {
		blk.Objects[i] = readObject(r)
	}
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	return r, blk, nil
}

// decodeRecordBlock decodes only the block of a record: the index-only
// reopen path, which leaves the ADS on disk.
func decodeRecordBlock(data []byte) (*chain.Block, error) {
	_, blk, err := openRecord(data)
	return blk, err
}

// DecodeChainRecordADS decodes the ADS of a record, its leaves holding
// the record's objects: the page-in path. The ADS has no node hashes
// until VerifyADSCommitments has derived and checked them.
func DecodeChainRecordADS(data []byte) (*BlockADS, error) {
	r, blk, err := openRecord(data)
	if err != nil {
		return nil, err
	}
	d := &recDecoder{Reader: r, objs: blk.Objects, named: make([]bool, len(blk.Objects))}
	ads := &BlockADS{Height: int(blk.Header.Height), Width: d.Int()}
	ads.Root = d.node(0)
	if k := slices.Index(d.named, false); k >= 0 {
		d.Failf("block object %d is no leaf", k)
	}
	// A skip entry costs ≥ 38 bytes: distance, hash and two point tags.
	if n := d.Count16(38); n > 0 {
		ads.Skips = make([]SkipEntry, n)
	}
	for i := range ads.Skips {
		ads.Skips[i] = SkipEntry{Distance: int(d.U32()), PrevHash: readHash(d.Reader), Digest: d.digest()}
	}
	// An element costs ≥ 6 bytes: its length and multiplicity.
	n := d.Count32(6)
	blockW := make(multiset.Multiset, n)
	for i := range blockW {
		el, k := d.String16(), d.U32()
		if (i > 0 && el <= blockW[i-1].Elem) || k == 0 {
			d.Failf("BlockW not ascending with positive multiplicities")
		}
		blockW[i] = multiset.Entry{Elem: el, Count: int(k)}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	ads.blockW = multiset.Pack(blockW)
	return ads, nil
}

type recDecoder struct {
	*wire.Reader
	objs  []chain.Object
	named []bool
}

func (d *recDecoder) node(depth int) *IntraNode {
	if depth > maxTreeDepth {
		d.Failf("index deeper than %d", maxTreeDepth)
	}
	tag := d.U8()
	if d.Err() != nil {
		return nil
	}
	if tag&^(recInternal|recHasDigest) != 0 {
		d.Failf("bad node tag %#x", tag)
	}
	n := &IntraNode{HasDigest: tag&recHasDigest != 0}
	if tag&recInternal == 0 {
		k := int(d.U32())
		switch {
		case k >= len(d.objs) || d.named[k]:
			d.Failf("leaf names object %d of %d twice or out of range", k, len(d.objs))
		case firstUnnamed(d.objs[:k], d.named, &d.objs[k]) >= 0:
			d.Failf("leaf names object %d, not the first equal one", k)
		default:
			d.named[k] = true
			n.Obj = &d.objs[k]
		}
	}
	if n.HasDigest {
		n.Digest = d.digest()
	}
	if tag&recInternal != 0 {
		n.Left = d.node(depth + 1)
		n.Right = d.node(depth + 1)
	}
	return n
}

func (d *recDecoder) digest() accumulator.Acc {
	return accumulator.Acc{A: d.point(), B: d.point()}
}

func (d *recDecoder) point() ec.Point {
	switch tag := d.U8(); tag {
	case 0:
	case 1:
		return ec.Point{Inf: true}
	case 2:
		p := ec.Point{X: d.elt(), Y: d.elt()}
		if p == (ec.Point{}) {
			d.Failf("affine point with zero coordinates")
		}
		return p
	default:
		d.Failf("bad point tag %d", tag)
	}
	return ec.Point{}
}

func (d *recDecoder) elt() ff.Elt {
	var l [8]uint64
	n := int(d.U8())
	if n > len(l) {
		d.Failf("field element of %d limbs", n)
		return ff.Elt{}
	}
	for i := range l[:n] {
		l[i] = d.U64()
	}
	if n > 0 && l[n-1] == 0 {
		d.Failf("field element with a zero top limb")
	}
	return ff.EltFromLimbs(l)
}
