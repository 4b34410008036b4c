module github.com/vchain-go/vchain/benchmark

go 1.24

require github.com/vchain-go/vchain v0.0.0

replace github.com/vchain-go/vchain => ../
