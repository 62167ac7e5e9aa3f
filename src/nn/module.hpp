// Trainable layers and parameter management.
//
// A Module owns named Parameters (leaf Vars with requires_grad). Composite
// networks register child modules; parameters() flattens the tree in
// registration order, which also defines the serialization layout.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/autograd.hpp"
#include "nn/conv.hpp"
#include "util/rng.hpp"

namespace pdnn::nn {

/// A named trainable tensor.
struct Parameter {
  std::string name;
  Var var;
};

/// Base class for anything with trainable state.
class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All parameters of this module and its children, in registration order.
  std::vector<Parameter*> parameters();

  /// Zero every parameter gradient (call before each backward pass).
  void zero_grad();

  /// Total trainable scalar count.
  std::int64_t num_parameters();

 protected:
  Parameter* register_parameter(std::string name, Tensor init);
  void register_module(Module* child);
  /// Register a child and qualify its parameter names as "<name>.<param>".
  /// Children register their own parameters first, so nested registration
  /// composes into full dotted paths ("fusion_net.enc1.weight") and
  /// serialization errors identify the exact tensor.
  void register_module(Module* child, const std::string& name);

 private:
  std::vector<std::unique_ptr<Parameter>> own_;
  std::vector<Module*> children_;
};

/// 2-D convolution layer (see conv2d). Kaiming-normal weight init.
///
/// forward() is const: it only reads the registered parameters, so
/// concurrent forward passes over shared (frozen) weights are safe as long
/// as no thread is mutating them (training and serving must not overlap on
/// one module).
class Conv2d : public Module {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int stride, int pad,
         PadMode pad_mode, util::Rng& rng);

  Var forward(const Var& x) const;

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }

 private:
  int in_channels_, out_channels_, kernel_, stride_, pad_;
  PadMode pad_mode_;
  Parameter* weight_;
  Parameter* bias_;
};

/// 2-D transposed convolution layer (zero padding, per the paper).
class ConvTranspose2d : public Module {
 public:
  ConvTranspose2d(int in_channels, int out_channels, int kernel, int stride,
                  int pad, int output_padding, util::Rng& rng);

  Var forward(const Var& x) const;

 private:
  int in_channels_, out_channels_, kernel_, stride_, pad_, output_padding_;
  Parameter* weight_;
  Parameter* bias_;
};

}  // namespace pdnn::nn
