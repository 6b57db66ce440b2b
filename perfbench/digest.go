package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"

	"heb/internal/sim"
)

// resultDigest fingerprints every field of a simulation result, floats
// by their exact bits, so two runs agree only when they simulated the
// same numbers. Field names take part, so a reordered or renamed field
// changes the digest rather than silently aliasing another.
func resultDigest(r sim.Result) (string, error) {
	h := sha256.New()
	if err := hashValue(h, "Result", reflect.ValueOf(r)); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

func hashValue(h hash.Hash, path string, v reflect.Value) error {
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			name := t.Field(i).Name
			h.Write([]byte(name))
			if err := hashValue(h, path+"."+name, v.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			if err := hashValue(h, fmt.Sprintf("%s[%d]", path, i), v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		put(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	default:
		// A field kind the digest cannot cover would let results differ
		// unnoticed; refuse instead.
		return fmt.Errorf("digest: %s has unsupported kind %s", path, v.Kind())
	}
	return nil
}
