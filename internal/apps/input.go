package apps

import (
	"sync"
	"unsafe"
	"weak"
)

// inputKey names one generated input: its generator and the generator's
// size arguments.
type inputKey struct {
	gen  string
	n, m int
}

// weakSlice is a memo entry: a weak pointer to a slice's first element, and
// the slice's length.
type weakSlice[T any] struct {
	first weak.Pointer[T]
	n     int
}

// get returns the slice, or nil once nothing else holds it.
func (w weakSlice[T]) get() []T {
	if p := w.first.Value(); p != nil {
		return unsafe.Slice(p, w.n)
	}
	return nil
}

func (w weakSlice[T]) live() bool { return w.first.Value() != nil }

// inputs is sharedInput's memo. The harness builds applications on several
// goroutines at once, so the mutex guards the map.
var inputs = struct {
	sync.Mutex
	m map[inputKey]interface{ live() bool }
}{m: map[inputKey]interface{ live() bool }{}}

// sharedInput returns the input gen generates for k, generating it at most
// once while any Instance still holds it: the memo points at it weakly, so
// it keeps alive nothing that no Instance uses. The slice is shared by every
// Build that asks for k and is never written; a golden that needs to mutate
// the input copies it first.
func sharedInput[T any](k inputKey, gen func() []T) []T {
	inputs.Lock()
	w, _ := inputs.m[k].(weakSlice[T])
	inputs.Unlock()
	if s := w.get(); s != nil {
		return s
	}
	// Generate outside the lock: it is most of a Build's cost. Two Builds
	// that miss at once each keep their own, equal, copy.
	s := gen()
	inputs.Lock()
	inputs.m[k] = weakSlice[T]{weak.Make(&s[0]), len(s)}
	inputs.Unlock()
	return s
}
