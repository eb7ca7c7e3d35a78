// Package exporttest is a fixture whose external test reaches an
// accessor defined only in its export_test.go.
package exporttest

type T struct{ n int }

func New() *T { return &T{n: 3} }
