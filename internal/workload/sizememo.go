package workload

import (
	"sync"
	"sync/atomic"

	"compresso/internal/datagen"
)

// sizeUnknown marks a per-line size memo entry whose size is unknown
// or stale. Sizes that do not fit below it are never memoized.
const sizeUnknown = 0xff

// sizeTableCapBytes bounds the bytes all pristine size tables may hold
// together (one byte per line: 64 MiB covers 4 GiB of pristine image
// content). Past it, new keys bypass the tables and their images size
// lazily, as images did before the tables existed.
const sizeTableCapBytes = 64 << 20

// sizeKey is everything an image's pristine content depends on —
// generateInto reads nothing else — plus the codec the sizes are for.
type sizeKey struct {
	name  string
	pages int
	seed  uint64
	mix   datagen.Mix
	codec string
}

// sizeTable is one key's pristine per-line sizes, built once by the
// first unmutated image that binds its memo under the key.
type sizeTable struct {
	once  sync.Once
	sizes []uint8 // nil until built (and for good if the build panicked)
}

// sizeTables is the process-wide, singleflight table of pristine line
// sizes. Every image of one key starts its memo as a copy of the same
// table, so a (profile, seed, scale) image is sized once per process
// however many experiment cells, runs or fleet nodes rebuild it.
var sizeTables struct {
	mu     sync.Mutex
	m      map[sizeKey]*sizeTable
	bytes  int64
	hits   atomic.Int64
	misses atomic.Int64
}

// SizeMemo reports the process-wide pristine size tables.
type SizeMemo struct {
	Tables int   // keys holding (or building) a table
	Bytes  int64 // bytes reserved by the tables, one per line
	Hits   int64 // memo binds that started as a copy of a table
	Misses int64 // memo binds that sized the image's own lines
}

// SizeMemoStats snapshots the pristine size tables' footprint and
// their hit and miss counts.
func SizeMemoStats() SizeMemo {
	sizeTables.mu.Lock()
	defer sizeTables.mu.Unlock()
	return SizeMemo{
		Tables: len(sizeTables.m),
		Bytes:  sizeTables.bytes,
		Hits:   sizeTables.hits.Load(),
		Misses: sizeTables.misses.Load(),
	}
}

// pristineTable returns the shared size table for the image's pristine
// content under codec, reserving it on first use. It returns nil for
// an image whose content is no longer pristine (stored to before its
// memo bound, or a replay overlay) and for a new key past the cap.
func (im *Image) pristineTable(codec string) *sizeTable {
	if im.stored || im.lastStore != nil {
		return nil
	}
	k := sizeKey{name: im.prof.Name, pages: im.prof.FootprintPages, seed: im.seed, mix: im.mix, codec: codec}
	sizeTables.mu.Lock()
	defer sizeTables.mu.Unlock()
	if t, ok := sizeTables.m[k]; ok {
		return t
	}
	n := int64(im.Lines())
	if sizeTables.bytes+n > sizeTableCapBytes {
		return nil
	}
	if sizeTables.m == nil {
		sizeTables.m = make(map[sizeKey]*sizeTable)
	}
	t := &sizeTable{}
	sizeTables.m[k] = t
	sizeTables.bytes += n
	return t
}

// unknownSizes returns a memo of n lines, every entry unknown.
func unknownSizes(n uint64) []uint8 {
	s := make([]uint8, n)
	for i := range s {
		s[i] = sizeUnknown
	}
	return s
}
