// Package resp implements the Redis serialization protocol (RESP2) that SKV
// inherits from Redis: command parsing on the server side (arrays of bulk
// strings, plus inline commands) and reply encoding/decoding.
//
// The Reader is incremental: transport messages can split or coalesce
// protocol units arbitrarily, exactly as TCP segments or RDMA ring frames
// do, and parsing resumes when more bytes arrive.
package resp

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// Value types.
const (
	TypeSimple  = '+'
	TypeError   = '-'
	TypeInteger = ':'
	TypeBulk    = '$'
	TypeArray   = '*'
	// TypePush is the RESP3 push frame ('>'): a server-initiated message
	// interleaved with replies on the same connection. SKV speaks RESP2
	// everywhere except this one frame, which carries client-tracking
	// invalidations (as Redis 6 does for clients that negotiated tracking).
	TypePush = '>'
)

// ErrProtocol reports malformed input; a server replies with an error and
// closes the connection.
var ErrProtocol = errors.New("resp: protocol error")

// Value is one decoded RESP value.
type Value struct {
	Type  byte
	Str   []byte  // Simple/Error/Bulk payload
	Int   int64   // Integer payload
	Array []Value // Array elements
	Null  bool    // null bulk ($-1) or null array (*-1)
}

// IsOK reports whether the value is the +OK simple string.
func (v Value) IsOK() bool { return v.Type == TypeSimple && string(v.Str) == "OK" }

// IsError reports whether the value is an error reply.
func (v Value) IsError() bool { return v.Type == TypeError }

// IsPush reports whether the value is a server-initiated push frame. Reply
// loops must check this before matching the value against their oldest
// in-flight request — a push consumes no request.
func (v Value) IsPush() bool { return v.Type == TypePush }

func (v Value) String() string {
	switch v.Type {
	case TypeSimple, TypeError:
		return string(v.Str)
	case TypeInteger:
		return strconv.FormatInt(v.Int, 10)
	case TypeBulk:
		if v.Null {
			return "(nil)"
		}
		return string(v.Str)
	case TypeArray:
		if v.Null {
			return "(nil array)"
		}
		var b bytes.Buffer
		b.WriteByte('[')
		for i, e := range v.Array {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(e.String())
		}
		b.WriteByte(']')
		return b.String()
	}
	return "?"
}

// ---- Encoding ----

// AppendSimple appends +s\r\n.
func AppendSimple(dst []byte, s string) []byte {
	dst = append(dst, '+')
	dst = append(dst, s...)
	return append(dst, '\r', '\n')
}

// AppendError appends -msg\r\n.
func AppendError(dst []byte, msg string) []byte {
	dst = append(dst, '-')
	dst = append(dst, msg...)
	return append(dst, '\r', '\n')
}

// AppendInt appends :n\r\n.
func AppendInt(dst []byte, n int64) []byte {
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, n, 10)
	return append(dst, '\r', '\n')
}

// AppendBulk appends $len\r\npayload\r\n.
func AppendBulk(dst, payload []byte) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(payload)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, payload...)
	return append(dst, '\r', '\n')
}

// AppendBulkString appends a bulk from a Go string.
func AppendBulkString(dst []byte, s string) []byte { return AppendBulk(dst, []byte(s)) }

// AppendNullBulk appends $-1\r\n.
func AppendNullBulk(dst []byte) []byte { return append(dst, '$', '-', '1', '\r', '\n') }

// AppendArrayHeader appends *n\r\n; the caller then appends n values.
func AppendArrayHeader(dst []byte, n int) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, '\r', '\n')
}

// AppendNullArray appends *-1\r\n.
func AppendNullArray(dst []byte) []byte { return append(dst, '*', '-', '1', '\r', '\n') }

// AppendInvalidatePush appends the client-tracking invalidation push frame
// >2\r\n$10\r\ninvalidate\r\n$<len>\r\n<key>\r\n — the one RESP3 frame the
// tracking plane injects into a RESP2 reply stream.
func AppendInvalidatePush(dst []byte, key []byte) []byte {
	dst = append(dst, TypePush)
	dst = append(dst, '2', '\r', '\n')
	dst = AppendBulkString(dst, "invalidate")
	return AppendBulk(dst, key)
}

// EncodeCommand encodes argv as an array of bulk strings (the client→server
// wire format).
func EncodeCommand(argv ...string) []byte {
	dst := make([]byte, 0, commandLen(argv))
	dst = AppendArrayHeader(dst, len(argv))
	for _, a := range argv {
		dst = AppendBulkString(dst, a)
	}
	return dst
}

// EncodeCommandBytes is EncodeCommand for byte-slice arguments.
func EncodeCommandBytes(argv ...[]byte) []byte {
	dst := make([]byte, 0, commandLen(argv))
	dst = AppendArrayHeader(dst, len(argv))
	for _, a := range argv {
		dst = AppendBulk(dst, a)
	}
	return dst
}

// commandLen is the encoded length of argv as an array of bulk strings, so
// the encoders allocate their buffer once.
func commandLen[T string | []byte](argv []T) int {
	size := headerLen(len(argv))
	for _, a := range argv {
		size += headerLen(len(a)) + len(a) + 2
	}
	return size
}

// headerLen is the encoded length of a *n or $n header line with its CRLF.
func headerLen(n int) int {
	digits := 1
	for ; n >= 10; n /= 10 {
		digits++
	}
	return 1 + digits + 2
}

// ---- Incremental decoding ----

// Reader incrementally decodes RESP values or commands from fed bytes.
type Reader struct {
	buf []byte
	pos int

	// spans is ReadCommand's scratch list of argument bounds in buf,
	// start/end pairs, reused across calls.
	spans []int
}

// Feed appends incoming bytes.
func (r *Reader) Feed(b []byte) { r.buf = append(r.buf, b...) }

// Buffered reports unconsumed byte count.
func (r *Reader) Buffered() int { return len(r.buf) - r.pos }

func (r *Reader) compact() {
	if r.pos > 0 && r.pos == len(r.buf) {
		r.buf = r.buf[:0]
		r.pos = 0
	} else if r.pos > 4096 {
		r.buf = append(r.buf[:0], r.buf[r.pos:]...)
		r.pos = 0
	}
}

// line returns the next CRLF-terminated line (without CRLF), advancing the
// cursor; ok is false when incomplete.
func (r *Reader) line() ([]byte, bool) {
	idx := bytes.Index(r.buf[r.pos:], []byte("\r\n"))
	if idx < 0 {
		return nil, false
	}
	l := r.buf[r.pos : r.pos+idx]
	r.pos += idx + 2
	return l, true
}

// ReadValue decodes one complete value. ok=false means more bytes needed
// (cursor unchanged).
func (r *Reader) ReadValue() (Value, bool, error) {
	save := r.pos
	v, ok, err := r.readValue()
	if !ok || err != nil {
		r.pos = save
		if err != nil {
			return Value{}, false, err
		}
		return Value{}, false, nil
	}
	r.compact()
	return v, true, nil
}

func (r *Reader) readValue() (Value, bool, error) {
	if r.pos >= len(r.buf) {
		return Value{}, false, nil
	}
	t := r.buf[r.pos]
	switch t {
	case TypeSimple, TypeError:
		r.pos++
		l, ok := r.line()
		if !ok {
			return Value{}, false, nil
		}
		return Value{Type: t, Str: append([]byte(nil), l...)}, true, nil
	case TypeInteger:
		r.pos++
		l, ok := r.line()
		if !ok {
			return Value{}, false, nil
		}
		n, err := strconv.ParseInt(string(l), 10, 64)
		if err != nil {
			return Value{}, false, fmt.Errorf("%w: bad integer %q", ErrProtocol, l)
		}
		return Value{Type: t, Int: n}, true, nil
	case TypeBulk:
		r.pos++
		l, ok := r.line()
		if !ok {
			return Value{}, false, nil
		}
		n, err := strconv.Atoi(string(l))
		if err != nil || n < -1 {
			return Value{}, false, fmt.Errorf("%w: bad bulk length %q", ErrProtocol, l)
		}
		if n == -1 {
			return Value{Type: t, Null: true}, true, nil
		}
		if n > len(r.buf)-r.pos-2 { // written so a huge n cannot overflow
			return Value{}, false, nil
		}
		payload := append([]byte(nil), r.buf[r.pos:r.pos+n]...)
		if r.buf[r.pos+n] != '\r' || r.buf[r.pos+n+1] != '\n' {
			return Value{}, false, fmt.Errorf("%w: bulk missing CRLF", ErrProtocol)
		}
		r.pos += n + 2
		return Value{Type: t, Str: payload}, true, nil
	case TypeArray, TypePush:
		r.pos++
		l, ok := r.line()
		if !ok {
			return Value{}, false, nil
		}
		n, err := strconv.Atoi(string(l))
		if err != nil || n < -1 {
			return Value{}, false, fmt.Errorf("%w: bad array length %q", ErrProtocol, l)
		}
		if n == -1 {
			return Value{Type: t, Null: true}, true, nil
		}
		// Every element takes at least 3 bytes, so an array announcing more
		// elements than there are buffered bytes cannot be complete yet —
		// and the length is never trusted for an allocation beyond them.
		if n > len(r.buf)-r.pos {
			return Value{}, false, nil
		}
		arr := make([]Value, 0, n)
		for i := 0; i < n; i++ {
			e, ok, err := r.readValue()
			if err != nil {
				return Value{}, false, err
			}
			if !ok {
				return Value{}, false, nil
			}
			arr = append(arr, e)
		}
		return Value{Type: t, Array: arr}, true, nil
	default:
		return Value{}, false, fmt.Errorf("%w: unexpected byte %q", ErrProtocol, t)
	}
}

// ReadCommand decodes one client command: either a RESP array of bulk
// strings or an inline command (space-separated words on one line).
// ok=false means more bytes needed.
func (r *Reader) ReadCommand() ([][]byte, bool, error) {
	if r.pos >= len(r.buf) {
		return nil, false, nil
	}
	for r.pos < len(r.buf) && r.buf[r.pos] != TypeArray {
		// Inline command; empty lines are skipped silently.
		l, ok := r.line()
		if !ok {
			return nil, false, nil
		}
		fields := bytes.Fields(l)
		if len(fields) == 0 {
			r.compact()
			continue
		}
		argv := make([][]byte, len(fields))
		for i, f := range fields {
			argv[i] = append([]byte(nil), f...)
		}
		r.compact()
		return argv, true, nil
	}
	if r.pos >= len(r.buf) {
		return nil, false, nil
	}
	if argv, ok, done := r.readArgv(); done {
		return argv, ok, nil
	}
	v, ok, err := r.ReadValue()
	if err != nil || !ok {
		return nil, ok, err
	}
	if v.Null || len(v.Array) == 0 {
		return nil, false, fmt.Errorf("%w: empty command array", ErrProtocol)
	}
	argv := make([][]byte, len(v.Array))
	for i, e := range v.Array {
		if e.Type != TypeBulk || e.Null {
			return nil, false, fmt.Errorf("%w: command element not a bulk string", ErrProtocol)
		}
		argv[i] = e.Str
	}
	return argv, true, nil
}

// readArgv is ReadCommand's fast path for the input every client sends: an
// array of one or more non-null bulk strings. It copies all arguments into
// one buffer and hands out capped subslices of it, so appending to one
// argument can never overwrite the next. done=false, with the cursor
// unchanged, means the input is something else (a null, empty or
// non-bulk array, or malformed); ReadValue then decodes it, and reports
// any error, exactly as for any other value. An incomplete command is
// done with ok=false: ReadValue would stop at the same byte.
func (r *Reader) readArgv() (argv [][]byte, ok, done bool) {
	save := r.pos
	incomplete := func() ([][]byte, bool, bool) {
		r.pos = save
		return nil, false, true
	}
	other := func() ([][]byte, bool, bool) {
		r.pos = save
		return nil, false, false
	}
	r.pos++ // the '*' the caller saw
	l, ok := r.line()
	if !ok {
		return incomplete()
	}
	n, err := strconv.Atoi(string(l))
	if err != nil || n < 1 {
		return other()
	}
	if n > len(r.buf)-r.pos { // as in readValue: never trust n beyond the input
		return incomplete()
	}
	r.spans = r.spans[:0]
	total := 0
	for i := 0; i < n; i++ {
		if r.pos >= len(r.buf) {
			return incomplete()
		}
		if r.buf[r.pos] != TypeBulk {
			return other()
		}
		r.pos++
		l, ok := r.line()
		if !ok {
			return incomplete()
		}
		size, err := strconv.Atoi(string(l))
		if err != nil || size < 0 {
			return other()
		}
		if size > len(r.buf)-r.pos-2 {
			return incomplete()
		}
		if r.buf[r.pos+size] != '\r' || r.buf[r.pos+size+1] != '\n' {
			return other()
		}
		r.spans = append(r.spans, r.pos, r.pos+size)
		total += size
		r.pos += size + 2
	}
	args := make([]byte, total)
	argv = make([][]byte, n)
	off := 0
	for i := range argv {
		m := copy(args[off:], r.buf[r.spans[2*i]:r.spans[2*i+1]])
		argv[i] = args[off : off+m : off+m]
		off += m
	}
	r.compact()
	return argv, true, true
}
