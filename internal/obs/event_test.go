package obs

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestEventShape pins what makes an Event cheap to copy into the
// recorder's batches and to read in every sink: at most 144 bytes (the
// fourteen 64-bit times and ids take 112), and no field a copy would
// share or the collector would scan.
func TestEventShape(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size > 144 {
		t.Errorf("Event is %d bytes, want at most 144", size)
	}
	typ := reflect.TypeOf(Event{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.String, reflect.Pointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("Event.%s is a %s", f.Name, f.Type.Kind())
		}
	}
}

// TestNameTableBounded: a name read from input is refused once the
// table is full, while a name the table holds is found at any size.
func TestNameTableBounded(t *testing.T) {
	known := NameOf("moesi")
	full := len(*names.list.Load())
	if _, ok := intern("a name no table holds yet", full); ok {
		t.Error("a full table took a new name")
	}
	if n, ok := intern("moesi", full); !ok || n != known {
		t.Errorf("a full table lost a name it holds: %d, %v", n, ok)
	}
	if _, err := decodeName("moesi"); err != nil {
		t.Errorf("decoding a held name: %v", err)
	}
}
