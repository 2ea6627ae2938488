package race

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// TestAccessDoesNotAllocateAfterWarmup: a barrier-phased stencil promotes
// its boundary words to read-shared and collapses them again every
// iteration. Once the shadow pages exist and the stripes have been through
// the free list, that cycle allocates nothing.
func TestAccessDoesNotAllocateAfterWarmup(t *testing.T) {
	const threads, words = 3, 64
	d, _ := newTest(threads, Word)
	barrier := func() {
		for u := 0; u < threads; u++ {
			d.BarrierArrive(u)
		}
	}
	cycle := func() {
		for w := uint64(0); w < words; w++ {
			d.Access(0, 0x1000+8*w, true) // ordered after last cycle's reads: collapses
		}
		barrier()
		for w := uint64(0); w < words; w++ {
			d.Access(1, 0x1000+8*w, false)
			d.Access(2, 0x1000+8*w, false) // concurrent with thread 1's: promotes
		}
		barrier()
	}
	cycle()
	cycle()
	if len(d.shared) != words {
		t.Fatalf("%d stripes for %d read-shared words", len(d.shared), words)
	}
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("%v allocations per write/barrier/read/read/barrier cycle, want 0", n)
	}
	if len(d.shared) != words {
		t.Fatalf("side table grew to %d stripes: collapsed stripes are not reused", len(d.shared))
	}
}

// TestShadowCellIsPointerFree: a shadow page must be a no-scan allocation,
// or the collector walks every cell of every touched page on every cycle.
func TestShadowCellIsPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(cell{}); size > 32 {
		t.Errorf("cell is %d bytes, want at most 32", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Func,
			reflect.Interface, reflect.Chan, reflect.String:
			t.Errorf("%s is a %s: the cell carries a pointer", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	walk("cell", reflect.TypeOf(cell{}))
}

// TestShadowPaysPerTouchedPage: shadow pages are allocated on first touch
// and the directory holds a pointer per page, so three words 1000 pages
// apart cost three shadow pages and a few hundred bytes of directory — not
// the 2000 pages between them.
func TestShadowPaysPerTouchedPage(t *testing.T) {
	d, _ := newTest(2, Word)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, page := range []uint64{1, 1001, 2001} {
		d.Access(0, page<<12+64, true)
	}
	runtime.ReadMemStats(&after)
	const directory = 4 << 10 // 32 directory slots and three 64-pointer leaves are under 2 KB
	got, most := after.TotalAlloc-before.TotalAlloc, 3*uint64(unsafe.Sizeof(shadowPage{}))+directory
	if got > most {
		t.Fatalf("three touched pages cost %d bytes of shadow, want at most %d", got, most)
	}
	t.Logf("three touched pages: %d bytes of shadow", got)
}
