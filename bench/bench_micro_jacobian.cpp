//===- bench/bench_micro_jacobian.cpp - Jacobian microbenchmarks ---------------===//
//
// RQ4 support: cost of the closed-form parameter Jacobian per layer of
// the Task-1 conv architecture (the paper's Figure 7(b) shows Jacobians
// dominating its PyTorch-based pipeline; ours are cheap, which shifts
// the time budget to the LP - see the Baseline section of ROADMAP.md).
//
//===----------------------------------------------------------------------===//

#include "nn/ActivationLayers.h"
#include "nn/Jacobian.h"
#include "nn/LinearLayers.h"
#include "nn/PoolLayers.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

using namespace prdnn;

namespace {

Network makeConvNet(Rng &R) {
  Network Net;
  auto RandomConv = [&R](int InC, int InH, int InW, int OutC, int K) {
    std::vector<double> Kernels(
        static_cast<size_t>(OutC) * InC * K * K);
    for (double &V : Kernels)
      V = 0.3 * R.normal();
    return std::make_unique<Conv2DLayer>(InC, InH, InW, OutC, K, K, 1, 1,
                                         std::move(Kernels),
                                         std::vector<double>(OutC, 0.0));
  };
  auto RandomFc = [&R](int Out, int In) {
    Matrix W(Out, In);
    for (int I = 0; I < Out; ++I)
      for (int J = 0; J < In; ++J)
        W(I, J) = 0.3 * R.normal();
    return std::make_unique<FullyConnectedLayer>(std::move(W), Vector(Out));
  };
  Net.addLayer(RandomConv(3, 16, 16, 6, 3));
  Net.addLayer(std::make_unique<ReLULayer>(6 * 16 * 16));
  Net.addLayer(std::make_unique<MaxPool2DLayer>(6, 16, 16, 2, 2, 2));
  Net.addLayer(RandomConv(6, 8, 8, 8, 3));
  Net.addLayer(std::make_unique<ReLULayer>(8 * 8 * 8));
  Net.addLayer(std::make_unique<MaxPool2DLayer>(8, 8, 8, 2, 2, 2));
  Net.addLayer(RandomFc(24, 8 * 4 * 4));
  Net.addLayer(std::make_unique<ReLULayer>(24));
  Net.addLayer(RandomFc(9, 24));
  return Net;
}

void BM_ParamJacobian(benchmark::State &State) {
  Rng R(11);
  Network Net = makeConvNet(R);
  std::vector<int> Layers = Net.parameterizedLayerIndices();
  int LayerIdx = Layers[static_cast<size_t>(State.range(0))];
  Vector X(Net.inputSize());
  for (int I = 0; I < X.size(); ++I)
    X[I] = R.uniform();
  for (auto _ : State) {
    JacobianResult Jr = paramJacobian(Net, LayerIdx, X);
    benchmark::DoNotOptimize(Jr.J.rows());
  }
  State.SetLabel(Net.layer(LayerIdx).describe());
}

void BM_ForwardPass(benchmark::State &State) {
  Rng R(12);
  Network Net = makeConvNet(R);
  Vector X(Net.inputSize());
  for (int I = 0; I < X.size(); ++I)
    X[I] = R.uniform();
  for (auto _ : State) {
    Vector Y = Net.evaluate(X);
    benchmark::DoNotOptimize(Y[0]);
  }
}

} // namespace

BENCHMARK(BM_ParamJacobian)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ForwardPass)->Unit(benchmark::kMicrosecond);
