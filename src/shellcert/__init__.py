"""shellcert: decide and certify order conditions on finite simplicial complexes.

The package answers, exactly and with replayable certificates or witnesses:
is this complex shellable, weakly shellable, does it satisfy the strong
gcd-condition, is it (sequentially) Cohen-Macaulay over a chosen field, and
how do those answers propagate through the known implications between them
and Golodness of the Stanley-Reisner ring.

The public names are those of each re-exported module's ``__all__``, bound
here to the module's own objects.  A tunable such as ``orders.NODE_BUDGET``
must be set on its module: the search reads it there, and assigning the
package-level copy has no effect.
"""

from . import complexes, facts, generators, homology, hunt, orders
from .complexes import *
from .facts import *
from .generators import *
from .homology import *
from .hunt import *
from .orders import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += complexes.__all__
__all__ += facts.__all__
__all__ += generators.__all__
__all__ += homology.__all__
__all__ += hunt.__all__
__all__ += orders.__all__
