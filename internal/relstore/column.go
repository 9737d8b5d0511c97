package relstore

import (
	"math"

	"hypre/internal/predicate"
)

// blockSize is the zone-map granularity: one min/max/flags entry per
// blockSize rows per column. 1024 rows = 16 selection-vector words, so block
// boundaries always align with the 64-bit words of a selection bitmap.
const blockSize = 1024

// zone is the per-block statistics entry of one column: the numeric min/max
// over the block plus kind flags. Kernels use it to skip blocks that cannot
// match a predicate and to bulk-accept blocks that cannot fail it.
type zone struct {
	min, max float64 // over non-NaN numeric values; valid when hasNum && !hasNaN only
	hasNum   bool    // any int/float row (including NaN floats)
	hasInt   bool
	hasFloat bool
	hasStr   bool
	hasNull  bool
	hasNaN   bool // NaN compares "equal" to everything under predicate.Compare, so it disables pruning
}

// pureNum reports whether every row of the block is a non-NaN numeric, the
// precondition for bulk-accepting the block on a range test.
func (z *zone) pureNum() bool {
	return z.hasNum && !z.hasStr && !z.hasNull && !z.hasNaN
}

// pureInt reports whether every row of the block is an int, enabling the
// tight typed loop without per-row kind dispatch.
func (z *zone) pureInt() bool {
	return z.hasInt && !z.hasFloat && !z.hasStr && !z.hasNull
}

// Adaptive dictionary thresholds: a column starts out dictionary-encoded,
// but once it has seen dictAdaptMinDistinct distinct strings and more than
// one string in dictAdaptRatioDen is distinct (i.e. the dictionary barely
// deduplicates — titles, abstracts), it migrates to raw per-row storage and
// stops paying the hash-map insert on every append.
const (
	dictAdaptMinDistinct = 256
	dictAdaptRatioDen    = 2 // migrate when distinct > strings/dictAdaptRatioDen
)

// strDict is a per-column string dictionary: values are stored once and rows
// carry 32-bit codes, so equality scans compare codes instead of bytes.
type strDict struct {
	idx  map[string]uint32
	strs []string
}

// code returns the dictionary code of s, ok=false when s never occurs in the
// column — which lets an equality scan return empty without touching a row.
func (d *strDict) code(s string) (uint32, bool) {
	c, ok := d.idx[s]
	return c, ok
}

func (d *strDict) add(s string) uint32 {
	if d.idx == nil {
		d.idx = make(map[string]uint32)
	}
	if c, ok := d.idx[s]; ok {
		return c
	}
	c := uint32(len(d.strs))
	d.idx[s] = c
	d.strs = append(d.strs, s)
	return c
}

// column is the typed columnar storage of one attribute. Rows keep a kind
// tag; numeric payloads live in nums (int64 bits for KindInt, float64 bits
// for KindFloat), string payloads are dictionary codes in codes — or, after
// the adaptive-dictionary migration, raw strings in rawStrs. The payload
// vectors are allocated lazily on the first value of their class, so a pure
// string column never pays for a numeric vector and vice versa.
type column struct {
	kinds   []predicate.Kind
	nums    []uint64 // len == len(kinds) once allocated
	codes   []uint32 // len == len(kinds) once allocated; dict mode only
	rawStrs []string // len == len(kinds) once allocated; raw mode only
	rawMode bool     // high-cardinality column migrated off the dictionary
	nStr    int      // string rows appended (adaptive-dictionary statistic)
	nNoInt  int      // rows intAt cannot convert (NULL/bool); 0 lets set scans skip the per-row probe
	dict    strDict
	zones   []zone
	nan     bool // any NaN row anywhere (column-level anyNaN shortcut)
}

// anyNaN reports whether any row holds a NaN float. NaN three-way-compares
// as "equal" to every number under predicate.Compare, which hash-index
// equality cannot reproduce, so candidate pruning must refuse such columns.
func (c *column) anyNaN() bool { return c.nan }

// append stores v as the next row and folds it into the block's zone entry.
func (c *column) append(v predicate.Value) {
	row := len(c.kinds)
	k := v.Kind()
	c.kinds = append(c.kinds, k)
	switch k {
	case predicate.KindInt:
		c.growNums(row)
		c.nums = append(c.nums, uint64(v.AsInt()))
	case predicate.KindFloat:
		c.growNums(row)
		c.nums = append(c.nums, math.Float64bits(v.AsFloat()))
	case predicate.KindString:
		c.nStr++
		if c.rawMode {
			c.growRaw(row)
			c.rawStrs = append(c.rawStrs, v.AsString())
		} else {
			c.growCodes(row)
			c.codes = append(c.codes, c.dict.add(v.AsString()))
			if len(c.dict.strs) >= dictAdaptMinDistinct &&
				len(c.dict.strs)*dictAdaptRatioDen > c.nStr {
				c.migrateToRaw()
			}
		}
	default:
		c.nNoInt++
	}
	// Keep any already-allocated sibling vector in lockstep so row offsets
	// stay valid for every row regardless of its kind.
	if c.nums != nil && len(c.nums) <= row {
		c.nums = append(c.nums, 0)
	}
	if c.codes != nil && len(c.codes) <= row {
		c.codes = append(c.codes, 0)
	}
	if c.rawStrs != nil && len(c.rawStrs) <= row {
		c.rawStrs = append(c.rawStrs, "")
	}

	bi := row / blockSize
	if bi == len(c.zones) {
		c.zones = append(c.zones, zone{min: math.Inf(1), max: math.Inf(-1)})
	}
	c.zones[bi].fold(k, v)
	if c.zones[bi].hasNaN {
		c.nan = true
	}
}

// fold accumulates one row's kind and value into the zone entry.
func (z *zone) fold(k predicate.Kind, v predicate.Value) {
	switch k {
	case predicate.KindNull:
		z.hasNull = true
	case predicate.KindString:
		z.hasStr = true
	default:
		z.hasNum = true
		if k == predicate.KindInt {
			z.hasInt = true
		} else {
			z.hasFloat = true
		}
		f := v.AsFloat()
		if math.IsNaN(f) {
			z.hasNaN = true
		} else {
			if f < z.min {
				z.min = f
			}
			if f > z.max {
				z.max = f
			}
		}
	}
}

// setRaw overwrites the row's payload (the update path) without touching
// zone state and returns the block it dirtied. The commit rebuilds that
// block's zone exactly in one pass (endBatchLocked) — updates must be able
// to *shrink* a zone, or repeated updates would degrade every block to
// "anything goes". Until that pass runs the block's zone is stale, which is
// safe only because the exclusive state lock keeps every reader out for the
// commit's whole critical section.
func (c *column) setRaw(row int, v predicate.Value) (blk int) {
	switch c.kinds[row] {
	case predicate.KindString:
		c.nStr--
	case predicate.KindInt, predicate.KindFloat:
	default:
		c.nNoInt--
	}
	k := v.Kind()
	c.kinds[row] = k
	switch k {
	case predicate.KindInt:
		c.ensureNums()
		c.nums[row] = uint64(v.AsInt())
	case predicate.KindFloat:
		c.ensureNums()
		c.nums[row] = math.Float64bits(v.AsFloat())
	case predicate.KindString:
		c.nStr++
		if c.rawMode {
			c.ensureRaw()
			c.rawStrs[row] = v.AsString()
		} else {
			c.ensureCodes()
			c.codes[row] = c.dict.add(v.AsString())
		}
	default:
		c.nNoInt++
	}
	return row / blockSize
}

// rebuildZone recomputes one block's zone entry exactly from its rows (the
// caller refreshes the column-level NaN shortcut). Tombstoned rows still
// participate — their values remain in the vectors, so including them keeps
// the zone a sound over-approximation and the typed bulk loops valid for
// every physical row.
func (c *column) rebuildZone(bi int) {
	lo := bi * blockSize
	hi := lo + blockSize
	if hi > len(c.kinds) {
		hi = len(c.kinds)
	}
	z := zone{min: math.Inf(1), max: math.Inf(-1)}
	for r := lo; r < hi; r++ {
		z.fold(c.kinds[r], c.value(r))
	}
	c.zones[bi] = z
}

// refreshNaN recomputes the column-level anyNaN shortcut from the zones.
func (c *column) refreshNaN() {
	nan := false
	for i := range c.zones {
		if c.zones[i].hasNaN {
			nan = true
			break
		}
	}
	c.nan = nan
}

// migrateToRaw abandons the dictionary for raw per-row string storage: the
// adaptive fallback for high-cardinality columns (titles, abstracts) where
// nearly every value is distinct and the dictionary map is pure overhead.
func (c *column) migrateToRaw() {
	raw := make([]string, len(c.kinds))
	for r, k := range c.kinds {
		if k == predicate.KindString {
			raw[r] = c.dict.strs[c.codes[r]]
		}
	}
	c.rawStrs = raw
	c.codes = nil
	c.dict = strDict{}
	c.rawMode = true
}

func (c *column) growNums(row int) {
	if c.nums == nil {
		c.nums = make([]uint64, row, row+64)
	}
}

func (c *column) growCodes(row int) {
	if c.codes == nil {
		c.codes = make([]uint32, row, row+64)
	}
}

func (c *column) growRaw(row int) {
	if c.rawStrs == nil {
		c.rawStrs = make([]string, row, row+64)
	}
}

func (c *column) ensureNums() {
	if c.nums == nil {
		c.nums = make([]uint64, len(c.kinds))
	}
}

func (c *column) ensureCodes() {
	if c.codes == nil {
		c.codes = make([]uint32, len(c.kinds))
	}
}

func (c *column) ensureRaw() {
	if c.rawStrs == nil {
		c.rawStrs = make([]string, len(c.kinds))
	}
}

// strAt returns the string payload of a KindString row in either storage
// mode.
func (c *column) strAt(row int) string {
	if c.rawMode {
		return c.rawStrs[row]
	}
	return c.dict.strs[c.codes[row]]
}

// value reboxes the row as a predicate.Value.
func (c *column) value(row int) predicate.Value {
	switch c.kinds[row] {
	case predicate.KindInt:
		return predicate.Int(int64(c.nums[row]))
	case predicate.KindFloat:
		return predicate.Float(math.Float64frombits(c.nums[row]))
	case predicate.KindString:
		return predicate.String(c.strAt(row))
	default:
		return predicate.Null()
	}
}

// intAt returns the row's value widened with AsInt (matching
// Value.AsInt: floats truncate, strings and NULLs are 0) plus a null flag.
func (c *column) intAt(row int) (int64, bool) {
	switch c.kinds[row] {
	case predicate.KindInt:
		return int64(c.nums[row]), true
	case predicate.KindFloat:
		return int64(math.Float64frombits(c.nums[row])), true
	case predicate.KindString:
		return 0, true
	default:
		return 0, false
	}
}

// litVal is a predicate literal pre-analyzed for typed comparison: the
// numeric widening and string payload are extracted once per scan instead of
// once per row.
type litVal struct {
	isNum bool
	isStr bool
	f     float64
	s     string
}

func analyzeLit(v predicate.Value) litVal {
	switch {
	case v.IsNumeric():
		return litVal{isNum: true, f: v.AsFloat()}
	case v.Kind() == predicate.KindString:
		return litVal{isStr: true, s: v.AsString()}
	default:
		return litVal{}
	}
}

// cmp3At three-way-compares the row's value against a pre-analyzed literal,
// mirroring predicate.Compare exactly: ok=false for NULL or kind-mismatched
// operands, and NaN floats compare as 0 against every number (float64
// three-way collapses NaN to "equal", which is the engine's historical
// behaviour the vectorized kernels must preserve).
func (c *column) cmp3At(row int, lit litVal) (int, bool) {
	switch c.kinds[row] {
	case predicate.KindInt:
		if !lit.isNum {
			return 0, false
		}
		return cmp3f(float64(int64(c.nums[row])), lit.f), true
	case predicate.KindFloat:
		if !lit.isNum {
			return 0, false
		}
		return cmp3f(math.Float64frombits(c.nums[row]), lit.f), true
	case predicate.KindString:
		if !lit.isStr {
			return 0, false
		}
		s := c.strAt(row)
		switch {
		case s < lit.s:
			return -1, true
		case s > lit.s:
			return 1, true
		default:
			return 0, true
		}
	default:
		return 0, false
	}
}

func cmp3f(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// opMatch applies a comparison operator to a three-way result.
func opMatch(c int, op predicate.Op) bool {
	switch op {
	case predicate.OpEq:
		return c == 0
	case predicate.OpNe:
		return c != 0
	case predicate.OpLt:
		return c < 0
	case predicate.OpLe:
		return c <= 0
	case predicate.OpGt:
		return c > 0
	case predicate.OpGe:
		return c >= 0
	default:
		return false
	}
}
