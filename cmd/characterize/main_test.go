package main

import (
	"reflect"
	"testing"
)

func TestModuleIDsTrimSpaces(t *testing.T) {
	for _, tc := range []struct {
		flag string
		want []string
	}{
		{"", nil},
		{"H5", []string{"H5"}},
		{"H5, M2 ,S6", []string{"H5", "M2", "S6"}},
	} {
		if got := moduleIDs(tc.flag); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("moduleIDs(%q) = %q, want %q", tc.flag, got, tc.want)
		}
	}
}
