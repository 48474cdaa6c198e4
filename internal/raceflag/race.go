//go:build race

package raceflag

func init() { Enabled = true }
