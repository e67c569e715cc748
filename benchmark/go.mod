module github.com/bounded-eval/beas/benchmark

go 1.24

require github.com/bounded-eval/beas v0.0.0

replace github.com/bounded-eval/beas => ../
