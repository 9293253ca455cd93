// Package deadapi is a small tree for the dead-API checker's own test.
package deadapi

import "deadapi/internal/lib"

// Widget's methods are public through this alias.
type Widget = lib.Widget

// Describe uses lib.Used, lib.Label and lib.Stale.
func Describe() string { return lib.Used(lib.Label("x")) + lib.Stale() }
