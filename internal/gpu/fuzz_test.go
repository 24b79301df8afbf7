package gpu

import (
	"reflect"
	"testing"

	"cachecraft/internal/config"
	"cachecraft/internal/schemes"
)

// fuzzInts rewrites every integer field of v (a struct, walked in field
// order, nested structs included) from one byte of data each, until data
// runs out. A byte's top two bits pick what happens to the field's value:
// keep it, shift it left or right by the low six bits, or replace it with
// a small signed constant (-32 to 31). Shifts keep power-of-two sizes
// powers of two and reach the bounds; constants reach zero and negatives.
func fuzzInts(v reflect.Value, data []byte) []byte {
	for i := 0; i < v.NumField() && len(data) > 0; i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Struct {
			data = fuzzInts(f, data)
			continue
		}
		var signed bool
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			signed = true
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			continue
		}
		b := data[0]
		data = data[1:]
		var x uint64
		if signed {
			x = uint64(f.Int())
		} else {
			x = f.Uint()
		}
		switch k := b & 63; b >> 6 {
		case 0:
			continue
		case 1:
			x <<= k
		case 2:
			x >>= k
		case 3:
			x = uint64(int64(k) - 32)
		}
		if signed {
			f.SetInt(int64(x))
		} else {
			f.SetUint(x)
		}
	}
	return data
}

// FuzzConfig derives configurations from config.Quick by rewriting its
// integer fields from fuzz bytes. Validate must never panic, and every
// configuration it accepts must build a machine under every scheme
// without a panic (an error, such as a footprint past the protected
// capacity, is fine).
func FuzzConfig(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x41})                   // twice the SMs
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0x81}) // L1 ways halved
	f.Add([]byte{0, 0xe0})                // zero outstanding accesses
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := config.Quick()
		fuzzInts(reflect.ValueOf(&cfg).Elem(), data)
		if err := cfg.Validate(); err != nil {
			return
		}
		for _, s := range schemes.Names() {
			factory, err := schemes.ByName(s)
			if err != nil {
				t.Fatal(err)
			}
			New(cfg, "stream", factory)
		}
	})
}
