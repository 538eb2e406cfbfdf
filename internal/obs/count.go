package obs

import (
	"reflect"
	"sync/atomic"
)

// Count is one lifetime counter of a serving tier. A tier declares its
// counters once, as the Count fields of the struct its /metrics section
// encodes; the live holder keeps that struct, bumps its fields with
// Add, and reads them out with Freeze. Count is an int64, so
// encoding/json and WriteProm render it as they render any int64.
//
// As for any int64 used with sync/atomic, a Count must be 8-byte
// aligned on 32-bit platforms, where the compiler aligns int64 to only
// 4 bytes. The first word of an allocated struct is 64-bit aligned, so
// a holder lays out its counter struct with every Count at an offset
// from its start that is a multiple of 8; an atomic operation on one
// that is not panics there (GOARCH=386 go test).
type Count int64

// Add adds n to c atomically.
func (c *Count) Add(n int64) { atomic.AddInt64((*int64)(c), n) }

// Load reads c atomically.
func (c *Count) Load() int64 { return atomic.LoadInt64((*int64)(c)) }

// Store sets c to n atomically.
func (c *Count) Store(n int64) { atomic.StoreInt64((*int64)(c), n) }

var countType = reflect.TypeFor[Count]()

// Freeze returns a copy of the live struct *live that holds each of
// its Count fields, read with an atomic load, and the zero value in
// every other field, which the caller fills with gauges, rates and
// percentiles. It is the one reader of a live counter struct.
func Freeze[T any](live *T) T {
	var out T
	src, dst := reflect.ValueOf(live).Elem(), reflect.ValueOf(&out).Elem()
	for i := range src.NumField() {
		if f := src.Field(i); f.Type() == countType {
			dst.Field(i).SetInt(f.Addr().Interface().(*Count).Load())
		}
	}
	return out
}
