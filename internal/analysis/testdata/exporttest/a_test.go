package exporttest_test

import (
	"testing"

	"repro/internal/analysis/testdata/exporttest"
)

func TestN(t *testing.T) {
	if exporttest.New().N() != 3 {
		t.Fatal("N")
	}
}
