#include "util/parse.h"

#include <cstdlib>
#include <iostream>

namespace vc2m::util {

void bad_flag_value(std::string_view flag, std::string_view s) {
  std::cerr << flag << ": bad value '" << s << "'\n";
  std::exit(2);
}

}  // namespace vc2m::util
