module gluon/benchmark

go 1.22

require gluon v0.0.0

replace gluon => ../
