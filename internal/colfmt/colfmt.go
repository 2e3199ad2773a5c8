// Package colfmt implements the PCOL binary columnar dataset format: the
// million-pipe data plane of the reproduction. A PCOL file carries one
// region — its pipe registry and failure-event log — as typed per-column
// blocks behind a magic/version header, with every section CRC-checksummed
// and low-cardinality string columns (class, material, coating, soil
// factors, failure mode) dictionary-encoded.
//
// On-disk layout (all integers little-endian):
//
//	"PCOL" | u16 version=1 | u16 flags=0
//	section*   — meta, the 15 pipe columns, the 5 event columns, end
//	each section:
//	  u8 kind | u8 column-id | u8 encoding | u8 reserved
//	  u64 rows | u64 payload-length | payload | u32 CRC-32 (IEEE) of payload
//
// Column encodings:
//
//	encF64  raw float64 bits, 8 bytes/row
//	encI32  int32, 4 bytes/row
//	encDict u16 dictionary size, length-prefixed dictionary strings
//	        (u16 length each), then one u8 code per row
//	encStr  u64 blob length, blob bytes, then rows+1 u32 offsets into the
//	        blob (unique strings such as pipe IDs)
//	encU32  uint32, 4 bytes/row (event→pipe row references)
//
// The reader (Read) streams the file in one pass into a dataset.Columns —
// the struct-of-arrays registry that feature.Builder reads — with
// O(columns) allocations: one typed slice per column plus a reused
// section scratch buffer, never per-row boxes. Events reference pipes by
// registry row index, so no ID-keyed map is needed to join them. Every
// decoded file is then checked with Columns.Validate, the same rules a
// CSV load applies, so both formats reject exactly the same data.
//
// Open is the format-sniffing loader the CLIs share: a directory with a
// dataset.col file (or a bare .col file path) loads columnar, any other
// directory falls back to the CSV reader in internal/dataset.
package colfmt

// Magic is the 4-byte file signature.
const Magic = "PCOL"

// Version is the current format version; readers reject anything newer.
const Version = 1

// DatasetFile is the conventional columnar file name inside a dataset
// directory; Open prefers it over the CSV trio when both are present.
const DatasetFile = "dataset.col"

// Section kinds.
const (
	secMeta  = 1
	secPipe  = 2
	secEvent = 3
	secEnd   = 0xFF
)

// Column encodings.
const (
	encF64  = 1
	encI32  = 2
	encDict = 3
	encStr  = 4
	encU32  = 5
)

// Pipe column IDs, in file order.
const (
	colPipeID = iota
	colPipeClass
	colPipeMaterial
	colPipeCoating
	colPipeDiameter
	colPipeLength
	colPipeLaidYear
	colPipeSoilCorr
	colPipeSoilExp
	colPipeSoilGeo
	colPipeSoilMap
	colPipeTraffic
	colPipeX
	colPipeY
	colPipeSegments
	numPipeCols
)

// Event column IDs, in file order.
const (
	colEventPipe = iota
	colEventSegment
	colEventYear
	colEventDay
	colEventMode
	numEventCols
)

// maxRows bounds the declared registry and event-log sizes; anything
// larger is a corrupt or hostile header, not a plausible utility.
const maxRows = 1 << 31
