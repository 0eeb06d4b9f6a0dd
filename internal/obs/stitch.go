package obs

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// ShardJournal is one worker shard's sealed journal plus the metadata
// Stitch needs to fold it into the coordinator's journal.
type ShardJournal struct {
	// Shard is the shard ID, stamped as a "shard" attribute on every
	// stitched span_start and event record.
	Shard string
	// Worker is the computing worker's ID, stamped as a "worker"
	// attribute alongside Shard.
	Worker string
	// OffsetNS shifts the shard's timestamps onto the coordinator's
	// epoch — typically the assignment time of the shard. Must be
	// non-negative.
	OffsetNS int64
	// Data is the shard's complete JSONL journal, run_start through
	// run_end. A journal sealed by anything other than run_end is
	// rejected: it may contain open spans, which would make the stitched
	// completed journal invalid.
	Data []byte
}

// Stitch merges a coordinator journal and per-shard worker journals
// into one journal that passes Validate: the coordinator's records come
// first (minus its terminal record), then each shard's records in the
// given order (minus their run_start and run_end), then the
// coordinator's terminal record. Shard span IDs are remapped past the
// previously used maximum so IDs stay unique, shard timestamps are
// shifted by OffsetNS onto the coordinator's epoch, and every stitched
// span_start/event record gains "shard" and "worker" attributes,
// replacing any it carried.
//
// Stitch works on the bytes, not on decoded records. Every record must
// be laid out as the journal writes it (see parseHead); coordinator
// records are copied verbatim, and shard records, which must also be
// valid JSON, are patched in place. The output is sized before it is
// written.
//
// Callers pass shards in a deterministic order (shard sequence, not
// completion order) so the stitched journal of a distributed job is
// reproducible run to run up to timing values.
func Stitch(coordinator []byte, shards []ShardJournal) ([]byte, error) {
	size, records, maxID := 0, 0, uint64(0)
	var last []byte
	err := eachLine(coordinator, func(n int, line []byte) error {
		h, err := parseHead(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
		maxID = max(maxID, h.span, h.parent)
		size += len(line) + 1
		records, last = n, line
		return nil
	})
	if err == nil && records == 0 {
		err = errors.New("empty journal")
	}
	if err != nil {
		return nil, fmt.Errorf("obs: stitch: coordinator journal: %w", err)
	}
	if h, _ := parseHead(last); string(h.typ) != TypeRunEnd && string(h.typ) != TypeRunCanceled {
		return nil, fmt.Errorf("obs: stitch: coordinator journal ends with %q, want a terminal record", h.typ)
	}

	// First pass: check every shard journal and size the output.
	var scratch []byte
	offset := maxID
	for i := range shards {
		sh := &shards[i]
		if sh.OffsetNS < 0 {
			return nil, fmt.Errorf("obs: stitch: shard %q: negative time offset %d", sh.Shard, sh.OffsetNS)
		}
		var n int
		scratch, n, offset, err = appendShard(scratch[:0], sh, offset, true)
		if err != nil {
			return nil, fmt.Errorf("obs: stitch: shard %q journal: %w", sh.Shard, err)
		}
		size += n
	}

	out := make([]byte, 0, size)
	_ = eachLine(coordinator, func(n int, line []byte) error {
		if n < records {
			out = append(append(out, line...), '\n')
		}
		return nil
	})
	offset = maxID
	for i := range shards {
		out, _, offset, _ = appendShard(out, &shards[i], offset, false)
	}
	return append(append(out, last...), '\n'), nil
}

// appendShard checks a shard journal and appends its middle records
// (all but its run_start and run_end), patched, to dst. It returns the
// grown slice, the bytes the records take, and the largest span ID in
// use after them. With measure set, each record overwrites the previous
// one in dst, so dst grows only to the longest record: the sizing pass.
func appendShard(dst []byte, sh *ShardJournal, offset uint64, measure bool) ([]byte, int, uint64, error) {
	shardTag := appendString([]byte(`"shard":`), sh.Shard)
	var workerTag []byte
	if sh.Worker != "" {
		workerTag = appendString([]byte(`"worker":`), sh.Worker)
	}
	base, n, next := len(dst), 0, offset
	var pending, lastTyp []byte
	var pendingHead head
	err := eachLine(sh.Data, func(line int, rec []byte) error {
		h, err := parseHead(rec)
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		if line == 1 {
			if string(h.typ) != TypeRunStart {
				return fmt.Errorf("starts with %q, want %q", h.typ, TypeRunStart)
			}
			lastTyp = h.typ
			return nil
		}
		// The previous record is not the last one: write it.
		if pending != nil {
			if measure {
				dst = dst[:base]
			}
			start := len(dst)
			dst = appendPatched(dst, pending, pendingHead, offset, sh.OffsetNS, shardTag, workerTag, &next)
			dst = append(dst, '\n')
			n += len(dst) - start
		}
		pending, pendingHead, lastTyp = rec, h, h.typ
		return nil
	})
	if err == nil && lastTyp == nil {
		err = errors.New("empty journal")
	}
	if err == nil && string(lastTyp) != TypeRunEnd {
		err = fmt.Errorf("ends with %q, want %q", lastTyp, TypeRunEnd)
	}
	return dst, n, next, err
}

// appendPatched appends one shard record line, read into h, with its
// timestamp shifted by tsOff and its span and parent IDs offset by
// idOff; a span_start or event record also gets the shard and worker
// tags (encoded members) in its attrs, replacing members of the same
// keys. The largest remapped ID is folded into *next.
func appendPatched(dst, line []byte, h head, idOff uint64, tsOff int64, shardTag, workerTag []byte, next *uint64) []byte {
	dst = append(dst, recordPrefix...)
	dst = strconv.AppendInt(dst, h.ts+tsOff, 10)
	pos := h.tsEnd
	if h.span != 0 {
		dst = append(dst, line[pos:h.spanAt]...)
		dst = strconv.AppendUint(dst, h.span+idOff, 10)
		*next = max(*next, h.span+idOff)
		pos = h.spanEnd
	}
	if h.parent != 0 {
		dst = append(dst, line[pos:h.parentAt]...)
		dst = strconv.AppendUint(dst, h.parent+idOff, 10)
		*next = max(*next, h.parent+idOff)
		pos = h.parentEnd
	}
	if string(h.typ) != TypeSpanStart && string(h.typ) != TypeEvent {
		return append(dst, line[pos:]...)
	}
	dst = append(dst, line[pos:h.attrsKey]...)
	dst = append(dst, `,"attrs":{`...)
	tags := [2][]byte{shardTag, workerTag}
	first := true
	put := func(member []byte) {
		if !first {
			dst = append(dst, ',')
		}
		dst = append(dst, member...)
		first = false
	}
	// Tag members go in before the first key that sorts after them, so
	// attrs written in encoding/json's key order stay in it.
	flush := func(key []byte) {
		for i, tag := range tags {
			if tag != nil && (key == nil || bytes.Compare(tagKey(tag), key) < 0) {
				put(tag)
				tags[i] = nil
			}
		}
	}
	if h.attrs != nil {
		skipObject(h.attrs, 0, 0, func(key, member []byte) {
			if string(key) == "shard" || (workerTag != nil && string(key) == "worker") {
				return
			}
			flush(key)
			put(member)
		})
	}
	flush(nil)
	return append(dst, '}', '}')
}

// tagKey returns the key of an encoded tag member ("shard" of
// `"shard":"j/s0"`).
func tagKey(member []byte) []byte {
	return member[1 : bytes.IndexByte(member[1:], '"')+1]
}

// eachLine calls fn with every non-blank line of data, trimmed, and its
// 1-based record number; it stops at the first error.
func eachLine(data []byte, fn func(n int, line []byte) error) error {
	n := 0
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if line = bytes.TrimSpace(line); len(line) == 0 {
			continue
		}
		n++
		if err := fn(n, line); err != nil {
			return err
		}
	}
	return nil
}

// recordPrefix opens every journal record.
const recordPrefix = `{"ts":`

// errLayout rejects a line that is not laid out as the journal writes
// records.
var errLayout = errors.New("record not in journal layout")

// head locates the fields of one record line that Stitch reads or
// rewrites. Ranges index the line; an absent span or parent is 0.
type head struct {
	ts    int64
	tsEnd int
	typ   []byte
	span  uint64
	// spanAt:spanEnd and parentAt:parentEnd are the digits of span and
	// parent.
	spanAt, spanEnd     int
	parent              uint64
	parentAt, parentEnd int
	// attrsKey is where `,"attrs":` starts, or the closing brace's
	// index when the record has no attrs; attrs is the object, checked.
	attrsKey int
	attrs    []byte
}

// parseHead reads a record line in the layout appendEvent writes, the
// one json.Marshal gives an Event:
//
//	{"ts":T,"type":"…"[,"name":"…"][,"span":S][,"parent":P][,"dur_ns":D][,"v":V][,"attrs":{…}]}
//
// Optional members appear in this order or not at all, with no
// whitespace between tokens, and the strings and the attrs object are
// valid JSON (see skipValue). Anything else is errLayout.
func parseHead(line []byte) (head, error) {
	var h head
	if !bytes.HasPrefix(line, []byte(recordPrefix)) || line[len(line)-1] != '}' {
		return h, errLayout
	}
	p, ok := len(recordPrefix), true
	if h.ts, p, ok = parseInt(line, p); !ok {
		return h, errLayout
	}
	h.tsEnd = p
	if p, ok = skipKey(line, p, `,"type":`); !ok {
		return h, errLayout
	}
	end, ok := skipString(line, p)
	if !ok {
		return h, errLayout
	}
	h.typ, p = line[p+1:end-1], end
	if q, ok := skipKey(line, p, `,"name":`); ok {
		if p, ok = skipString(line, q); !ok {
			return h, errLayout
		}
	}
	if q, ok := skipKey(line, p, `,"span":`); ok {
		var v int64
		if v, p, ok = parseInt(line, q); !ok || v <= 0 {
			return h, errLayout
		}
		h.span, h.spanAt, h.spanEnd = uint64(v), q, p
	}
	if q, ok := skipKey(line, p, `,"parent":`); ok {
		var v int64
		if v, p, ok = parseInt(line, q); !ok || v <= 0 {
			return h, errLayout
		}
		h.parent, h.parentAt, h.parentEnd = uint64(v), q, p
	}
	for _, key := range [...]string{`,"dur_ns":`, `,"v":`} {
		if q, ok := skipKey(line, p, key); ok {
			if _, p, ok = parseInt(line, q); !ok {
				return h, errLayout
			}
		}
	}
	h.attrsKey = p
	if q, ok := skipKey(line, p, `,"attrs":`); ok && line[q] == '{' {
		if p, ok = skipObject(line, q, 0, nil); !ok {
			return h, errLayout
		}
		h.attrs = line[q:p]
	}
	if p != len(line)-1 {
		return h, errLayout
	}
	return h, nil
}

// skipKey reports whether line continues at p with key, and where the
// value after it starts.
func skipKey(line []byte, p int, key string) (int, bool) {
	if bytes.HasPrefix(line[p:], []byte(key)) {
		return p + len(key), true
	}
	return p, false
}

// parseInt reads an optionally negative JSON integer of at most 18
// digits at p.
func parseInt(line []byte, p int) (int64, int, bool) {
	end := p
	neg := end < len(line) && line[end] == '-'
	if neg {
		end++
	}
	digits, v := end, int64(0)
	for ; end < len(line) && '0' <= line[end] && line[end] <= '9'; end++ {
		v = v*10 + int64(line[end]-'0')
	}
	if n := end - digits; n == 0 || n > 18 || n > 1 && line[digits] == '0' {
		return 0, p, false
	}
	if neg {
		v = -v
	}
	return v, end, true
}

// skipString returns the index just past the JSON string that starts
// at p, checking its escapes and that it holds no control bytes.
func skipString(b []byte, p int) (int, bool) {
	if p >= len(b) || b[p] != '"' {
		return p, false
	}
	for i := p + 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, true
		case c < 0x20:
			return p, false
		case c == '\\':
			if i++; i >= len(b) {
				return p, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) {
					return p, false
				}
				for _, h := range b[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return p, false
					}
				}
				i += 4
			default:
				return p, false
			}
		}
	}
	return p, false
}

// maxDepth bounds the nesting skipValue follows, as encoding/json
// bounds its scanner's.
const maxDepth = 10000

// skipValue returns the index just past the JSON value that starts at
// p, checking it as json.Valid would, except that no whitespace may
// separate tokens: json.Marshal writes none.
func skipValue(b []byte, p, depth int) (int, bool) {
	if p >= len(b) || depth > maxDepth {
		return p, false
	}
	switch b[p] {
	case '"':
		return skipString(b, p)
	case '{':
		return skipObject(b, p, depth, nil)
	case '[':
		i := p + 1
		if i < len(b) && b[i] == ']' {
			return i + 1, true
		}
		for {
			end, ok := skipValue(b, i, depth+1)
			if !ok || end >= len(b) {
				return p, false
			}
			switch b[end] {
			case ',':
				i = end + 1
			case ']':
				return end + 1, true
			default:
				return p, false
			}
		}
	}
	for _, lit := range [...]string{"true", "false", "null"} {
		if bytes.HasPrefix(b[p:], []byte(lit)) {
			return p + len(lit), true
		}
	}
	return skipNumber(b, p)
}

// skipObject returns the index just past the JSON object that starts
// at p (see skipValue), calling fn, when set, with the raw key
// (escaped, unquoted) and the whole `"key":value` text of each member.
func skipObject(b []byte, p, depth int, fn func(key, member []byte)) (int, bool) {
	i := p + 1
	if i < len(b) && b[i] == '}' {
		return i + 1, true
	}
	for {
		kend, ok := skipString(b, i)
		if !ok || kend >= len(b) || b[kend] != ':' {
			return p, false
		}
		vend, ok := skipValue(b, kend+1, depth+1)
		if !ok || vend >= len(b) {
			return p, false
		}
		if fn != nil {
			fn(b[i+1:kend-1], b[i:vend])
		}
		switch b[vend] {
		case ',':
			i = vend + 1
		case '}':
			return vend + 1, true
		default:
			return p, false
		}
	}
}

// skipNumber returns the index just past the JSON number that starts
// at p.
func skipNumber(b []byte, p int) (int, bool) {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := p
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i)
	default:
		return p, false
	}
	if i < len(b) && b[i] == '.' {
		if j := digits(i + 1); j > i+1 {
			i = j
		} else {
			return p, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return p, false
		}
		i = j
	}
	return i, true
}
