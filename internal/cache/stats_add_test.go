package cache

import (
	"reflect"
	"testing"
)

// TestStatsAddCoversEveryField: Add must accumulate every counter in
// Stats — a new field that Add forgets would silently vanish from
// aggregated metrics. The test fills every int64 field (and the
// transition matrix) via reflection with distinct values, adds, and
// checks the sums, so it fails when a field is added without updating
// Add.
func TestStatsAddCoversEveryField(t *testing.T) {
	fill := func(mult int64) Stats {
		var s Stats
		v := reflect.ValueOf(&s).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch f.Kind() {
			case reflect.Int64:
				f.SetInt(int64(i+1) * mult)
			case reflect.Array: // Transitions
				for from := 0; from < f.Len(); from++ {
					row := f.Index(from)
					for to := 0; to < row.Len(); to++ {
						row.Index(to).SetInt(int64(from*10+to+1) * mult)
					}
				}
			default:
				t.Fatalf("Stats field %s has unhandled kind %s — extend Add and this test", v.Type().Field(i).Name, f.Kind())
			}
		}
		return s
	}

	a, b, want := fill(1), fill(2), fill(3)
	a.Add(b)
	if a != want {
		t.Errorf("Add dropped a field:\n got %+v\nwant %+v", a, want)
	}
}
