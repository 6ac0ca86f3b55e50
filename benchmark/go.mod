module neurolpm/benchmark

go 1.23

require neurolpm v0.0.0

replace neurolpm => ../
