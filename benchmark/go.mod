module mykil/benchmark

go 1.22

require mykil v0.0.0

replace mykil => ../
