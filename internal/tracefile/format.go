// Package tracefile is the out-of-core binary trace format behind
// long-horizon campaigns: a streaming, chunked, optionally compressed
// time-series file (extension .tct) that replaces in-memory
// trace.Series accumulation when a run is longer than RAM. A campaign
// of millions of rounds streams through one 64 KiB chunk buffer, and
// each chunk is written as it fills; reports, golden tests and the
// cmd/thermtrace tool read it back with random access by time window.
//
// # On-disk layout (version 1; see DESIGN.md §12)
//
//	file   := header chunk* [index trailer]
//	header := magic8 "THERMTCT" | version u16 | flags u16 |
//	          schemaLen u32 | schema
//	schema := count u16 | seriesDef*
//	seriesDef := recLen u16 | nameLen u16 | name | unitLen u16 | unit
//	chunk  := magic4 "TCHK" | kind u8 | flags u8 | reserved u16 |
//	          baseTime i64 | minTime i64 | maxTime i64 |
//	          count u32 | rawLen u32 | storedLen u32 | crc u32 |
//	          payload[storedLen]
//	index  := magic4 "TIDX" | count u32 | entry* | crc u32
//	entry  := offset u64 | kind u8 | count u32 | minTime i64 | maxTime i64
//	trailer:= indexOffset u64 | magic8 "THERMEND"
//
// All fixed-width integers are little-endian. Chunk payloads are
// delta-encoded records (see writer.go), DEFLATE-compressed when the
// chunk's flag bit 0 is set, and guarded by an IEEE CRC32 of the
// stored bytes. The index footer gives O(1) seek to any time window; a
// truncated file that lost it is still readable by rescanning the
// chunks (see reader.go).
//
// Forward compatibility: readers reject an unknown major version, skip
// unrecognized trailing bytes of a seriesDef (recLen is authoritative),
// ignore header flag bits they do not know, and skip chunks of an
// unknown kind. Writers never reuse retired field meanings; new
// per-series attributes append inside seriesDef, new record kinds take
// a new chunk kind byte.
package tracefile

import (
	"encoding/binary"
	"fmt"
	"time"
)

// File structure constants. The magics are distinct for every block
// kind so a rescanning reader can tell a chunk boundary from the index
// footer without trusting any length field.
const (
	fileMagic    = "THERMTCT"
	chunkMagic   = "TCHK"
	indexMagic   = "TIDX"
	trailerMagic = "THERMEND"

	// Version is the format version this package writes.
	Version = 1

	// header flag bits.
	flagCompressed = 1 << 0

	// chunk kinds. Readers skip unknown kinds, so adding one is a
	// forward-compatible change.
	kindSamples = 1
	kindEvents  = 2

	fixedHeaderLen = 8 + 2 + 2 + 4 // magic, version, flags, schemaLen
	chunkHeaderLen = 4 + 1 + 1 + 2 + 8 + 8 + 8 + 4 + 4 + 4 + 4
	indexEntryLen  = 8 + 1 + 4 + 8 + 8
	trailerLen     = 8 + 8

	// maxChunkRaw bounds both the stored and decompressed size of one
	// chunk. A corrupt or hostile length field must not drive a huge
	// allocation: anything above this is rejected as malformed.
	maxChunkRaw = 1 << 24

	// maxSchemaLen bounds the declared schema block for the same
	// reason.
	maxSchemaLen = 1 << 20
)

// SeriesDef declares one series in the file header: a name and the
// physical unit of its samples, mirroring the //thermlint:unit tags the
// unitsafe analyzer tracks in code ("degC", "percent", "GHz", "W").
type SeriesDef struct {
	Name string
	Unit string
}

// Sample is one decoded sample record.
type Sample struct {
	Series int
	T      time.Duration
	V      float64
}

// Event is one decoded event record: a timestamped line of text.
// Golden step traces are stored as event streams.
type Event struct {
	T    time.Duration
	Text string
}

// indexEntry locates one chunk for random access.
type indexEntry struct {
	offset int64
	kind   byte
	count  uint32
	minT   int64
	maxT   int64
}

// encodeHeader renders the file header for the given flags and schema.
func encodeHeader(flags uint16, schema []SeriesDef) ([]byte, error) {
	var sb []byte
	sb = binary.LittleEndian.AppendUint16(sb, uint16(len(schema)))
	for _, s := range schema {
		if len(s.Name) > 0xffff || len(s.Unit) > 0xffff {
			return nil, fmt.Errorf("tracefile: series name/unit longer than 65535 bytes")
		}
		rec := 2 + len(s.Name) + 2 + len(s.Unit)
		if rec > 0xffff {
			return nil, fmt.Errorf("tracefile: series definition %q too large", s.Name)
		}
		sb = binary.LittleEndian.AppendUint16(sb, uint16(rec))
		sb = binary.LittleEndian.AppendUint16(sb, uint16(len(s.Name)))
		sb = append(sb, s.Name...)
		sb = binary.LittleEndian.AppendUint16(sb, uint16(len(s.Unit)))
		sb = append(sb, s.Unit...)
	}
	if len(schema) > 0xffff {
		return nil, fmt.Errorf("tracefile: %d series exceed the schema limit", len(schema))
	}
	if len(sb) > maxSchemaLen {
		return nil, fmt.Errorf("tracefile: schema block %d bytes exceeds the %d limit", len(sb), maxSchemaLen)
	}
	h := make([]byte, 0, fixedHeaderLen+len(sb))
	h = append(h, fileMagic...)
	h = binary.LittleEndian.AppendUint16(h, Version)
	h = binary.LittleEndian.AppendUint16(h, flags)
	h = binary.LittleEndian.AppendUint32(h, uint32(len(sb)))
	return append(h, sb...), nil
}

// parseHeader decodes the fixed header plus schema block from the
// start of buf and returns the flags, schema and header length.
func parseHeader(buf []byte) (flags uint16, schema []SeriesDef, n int, err error) {
	if len(buf) < fixedHeaderLen {
		return 0, nil, 0, fmt.Errorf("tracefile: file shorter than the %d-byte header", fixedHeaderLen)
	}
	if string(buf[:8]) != fileMagic {
		return 0, nil, 0, fmt.Errorf("tracefile: bad magic %q (not a trace file)", buf[:8])
	}
	version := binary.LittleEndian.Uint16(buf[8:10])
	if version != Version {
		return 0, nil, 0, fmt.Errorf("tracefile: unknown format version %d (this reader speaks %d)", version, Version)
	}
	flags = binary.LittleEndian.Uint16(buf[10:12])
	schemaLen := binary.LittleEndian.Uint32(buf[12:16])
	if schemaLen > maxSchemaLen {
		return 0, nil, 0, fmt.Errorf("tracefile: schema block %d bytes exceeds the %d limit", schemaLen, maxSchemaLen)
	}
	n = fixedHeaderLen + int(schemaLen)
	if len(buf) < n {
		return 0, nil, 0, fmt.Errorf("tracefile: truncated schema block (%d of %d bytes)", len(buf)-fixedHeaderLen, schemaLen)
	}
	sb := buf[fixedHeaderLen:n]
	if len(sb) < 2 {
		return 0, nil, 0, fmt.Errorf("tracefile: schema block too short for its series count")
	}
	count := int(binary.LittleEndian.Uint16(sb[:2]))
	sb = sb[2:]
	schema = make([]SeriesDef, 0, count)
	for i := 0; i < count; i++ {
		if len(sb) < 2 {
			return 0, nil, 0, fmt.Errorf("tracefile: truncated series definition %d of %d", i, count)
		}
		rec := int(binary.LittleEndian.Uint16(sb[:2]))
		if len(sb) < 2+rec {
			return 0, nil, 0, fmt.Errorf("tracefile: series definition %d overruns the schema block", i)
		}
		body := sb[2 : 2+rec]
		sb = sb[2+rec:]
		if len(body) < 2 {
			return 0, nil, 0, fmt.Errorf("tracefile: series definition %d too short for its name", i)
		}
		nameLen := int(binary.LittleEndian.Uint16(body[:2]))
		body = body[2:]
		if len(body) < nameLen {
			return 0, nil, 0, fmt.Errorf("tracefile: series definition %d name overruns its record", i)
		}
		name := string(body[:nameLen])
		body = body[nameLen:]
		if len(body) < 2 {
			return 0, nil, 0, fmt.Errorf("tracefile: series definition %d too short for its unit", i)
		}
		unitLen := int(binary.LittleEndian.Uint16(body[:2]))
		body = body[2:]
		if len(body) < unitLen {
			return 0, nil, 0, fmt.Errorf("tracefile: series definition %d unit overruns its record", i)
		}
		unit := string(body[:unitLen])
		// Trailing bytes of the record belong to a future format
		// revision; skip them (the forward-compat rule).
		schema = append(schema, SeriesDef{Name: name, Unit: unit})
	}
	return flags, schema, n, nil
}

// zigzag encodes a signed delta as an unsigned varint-friendly value:
// small magnitudes of either sign stay small.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
