module github.com/reflex-go/reflex/bench

go 1.22

require github.com/reflex-go/reflex v0.0.0

replace github.com/reflex-go/reflex => ../
